"""The repository benchmark: three workloads driven through public entry
points, with a traced per-layer breakdown.  See ``perfbench/README.md``."""
