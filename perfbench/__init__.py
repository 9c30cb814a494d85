"""The repository's benchmark: whole CSnake campaigns, timed end to end and
traced layer by layer.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
