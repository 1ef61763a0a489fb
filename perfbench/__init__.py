"""connfp benchmark harness (see README.md)."""
