"""One traced `decotherm run` in a fresh process.

    python3 -m perfbench.traced_cli PROFILE run CONFIG [--output PATH] ...

Times the package import, wraps the layer functions, runs the CLI's
`main` with the remaining arguments and writes the span totals and
counts to PROFILE as JSON. An exception that escapes a scenario
runner is counted as errors.<class> before the CLI maps it to an exit
code.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import Tracer


def _count_escapes(tracer: Tracer, runners: dict) -> None:
    for key, runner in list(runners.items()):
        def counted(cfg, _runner=runner):
            try:
                return _runner(cfg)
            except Exception as exc:
                tracer.counts[f"errors.{type(exc).__name__}"] += 1
                raise

        runners[key] = counted


def main() -> int:
    profile_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(max_spans=0)  # totals only; spans are not written
    with tracer.span("root"):
        with tracer.span("import.decotherm"):
            import decotherm.cli
        tracer.install()
        _count_escapes(tracer, decotherm.cli._RUNNERS)
        code = decotherm.cli.main(argv)
    tracer.uninstall()
    with open(profile_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.profile(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
