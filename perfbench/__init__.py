"""Benchmark harness for kerrcomb; see perfbench/README.md."""
