"""``python -m benchmarks`` entry point (writes ``BENCH.json`` by default)."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
