"""Name of the numeric backend, recorded by the benchmark's environment record."""

BACKEND = "numpy"
