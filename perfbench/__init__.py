"""The repository's benchmark: served warm and cold traffic plus the
paper kernel suite, with a separate traced run that splits latency by
layer.  Entry point: ``python3 perfbench/run.py --help``."""
