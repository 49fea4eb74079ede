"""coinforge: deterministic simulator and analysis suite for committee-based
weakening of strong asynchronous common coins."""

__version__ = "0.1.0"
