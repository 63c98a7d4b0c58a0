"""The benchmark harness: ``python3 perfbench/run.py``; see NOTES.md."""
