"""The repository benchmark (run.py is the entry point)."""
