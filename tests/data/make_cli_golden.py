"""Regenerate ``cli_golden.json``, the pinned bytes of the evaluating commands.

The golden document has three sections, each keyed by the command line
(``shlex.join`` of the argv after ``repro``):

* ``emit_spec`` — the stdout of ``--emit-spec`` for a matrix of
  ``evaluate``/``sweep``/``compare``/``serve``/``fleet``/``tune``
  invocations that together set every long flag of those six commands;
* ``json`` — the ``--json --no-cache`` stdout of runs cheap enough for
  tier-1 (evaluate, compare, a 60 s serve, a closed-loop serve, a 60 s
  fleet, a 4-point tune), plus the ``models`` table, its ``--json`` form
  and its detailed view;
* ``errors`` — the exit status and stderr of malformed flags, each of
  which must fail with one ``error:`` line.

Every command runs in-process through :func:`repro.cli.main` from a
scratch working directory, so the flags that name files (``--output``,
``--save-trace``, ``--checkpoint``, ...) never touch the checkout; with
``--emit-spec`` none of them is written or read.
``tests/integration/test_cli_golden.py`` reruns each command and compares
the bytes with ``==``.  Regenerate from the repository root with::

    PYTHONPATH=src python tests/data/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shlex
import tempfile
from typing import Dict, Iterator, List, Tuple

from repro.cli import main as cli_main

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

#: ``--emit-spec`` invocations; together they set every long flag of the
#: six evaluating commands at least once.
EMIT_SPEC: Tuple[str, ...] = (
    "evaluate --emit-spec",
    "evaluate --model mobilebert --mode encoder --seq-len 64 "
    "--prefetch blocking --strategy tensor_parallel --chips 4 --json "
    "--no-cache --cache-dir unused-cache --emit-spec",
    "sweep --emit-spec",
    "sweep --model tinyllama-42m --mode prompt --seq-len 32 "
    "--prefetch overlap --strategy pipeline_parallel --chips 1 2 4 "
    "--parallel 2 --output sweep.json --json --no-cache "
    "--cache-dir unused-cache --emit-spec",
    "compare --emit-spec",
    "compare --model mobilebert --mode encoder --seq-len 128 "
    "--prefetch blocking --chips 4 --strategies single_chip paper "
    "--json --no-cache --cache-dir unused-cache --emit-spec",
    "serve --emit-spec",
    "serve --model tinyllama-42m --chips 4 --strategy tensor_parallel "
    "--policy priority --trace bursty --arrival-rate 3 --burst-rate 9 "
    "--duration 120 --prompt-mean 48 --output-mean 24 --prompt-max 200 "
    "--output-max 100 --priority-levels 2 --seed 7 --save-trace trace.json "
    "--slo-ttft 0.5 1 2 --json --no-cache --cache-dir unused-cache "
    "--emit-spec",
    "serve --trace closed --clients 4 --requests-per-client 8 "
    "--think-time 0.5 --emit-spec",
    "serve --replay trace.json --emit-spec",
    "fleet --emit-spec",
    "fleet --model tinyllama-42m --platform siracusa-mipi:8x2@prefill "
    "--platform siracusa-fast-link:4@decode --router prefill_decode "
    "--policy shortest_prompt --strategy paper --trace diurnal "
    "--arrival-rate 4 --duration 600 --amplitude 0.4 --period 3600 "
    "--phase 60 --spike-start 100 --spike-start 300 --spike-duration 60 "
    "--spike-rate 8 --prompt-mean 40 --output-mean 20 --prompt-max 128 "
    "--output-max 64 --priority-levels 2 --class interactive:2:4:0.5:10 "
    "--class batch --seed 3 --max-context 512 --slo-ttft 0.5 1 "
    "--record-threshold 5000 --json --no-cache --cache-dir unused-cache "
    "--emit-spec",
    "fleet --platform siracusa-mipi:8x3 --trace bursty --burst-rate 10 "
    "--autoscale siracusa-mipi:4 --autoscale-max 2 --autoscale-interval 30 "
    "--autoscale-slo 0.8 --faults crash:0@10+20 --faults slow:1@5+30x3 "
    "--faults brownout@40+20x2 --faults random:100:10:500 --fault-seed 5 "
    "--retry 30:3:0.5:2 --shed-below 0.9 --shed-keep 2 --emit-spec",
    "fleet --autoscale --class gold::2 --emit-spec",
    "fleet --shed-below 0.5 --emit-spec",
    "fleet --replay trace.json --emit-spec",
    "tune --emit-spec",
    "tune --model tinyllama-42m --mode autoregressive --seq-len 256 "
    "--prefetch blocking --searcher grid --budget 12 --seed 2 "
    "--objectives latency energy --constraint latency<=0.01 "
    "--constraint energy<=1 --chips 2 4 --link-gbps 0.5 1 "
    "--l2-kib 1024 2048 --freq-mhz 300 400 --strategies paper "
    "tensor_parallel --parallel 2 --checkpoint search.json "
    "--checkpoint-every 10 --resume search.json --json --no-cache "
    "--cache-dir unused-cache --emit-spec",
    "tune --parallel 3 --emit-spec",
)

#: Non-default scheduling policies whose serve and fleet bytes are pinned
#: at a load that keeps their ready queues several requests deep.
POLICY_FLAGS: Tuple[str, ...] = (
    "--policy shortest_prompt",
    "--policy priority --priority-levels 2",
    "--policy continuous",
)

#: A closed-loop ``serve`` trace of 4 clients x 8 requests.
CLOSED_LOOP = (
    "serve --trace closed --clients 4 --requests-per-client 8 --think-time 0.5"
)

#: ``--json --no-cache`` runs, cheap enough to execute in tier-1.
JSON_RUNS: Tuple[str, ...] = (
    "evaluate --json --no-cache",
    "compare --json --no-cache",
    "serve --duration 60 --json --no-cache",
    "fleet --duration 60 --json --no-cache",
    "tune --budget 4 --json --no-cache",
    *(
        f"{command} --duration 60 --arrival-rate 6 {flags} --json --no-cache"
        for command in ("serve", "fleet")
        for flags in POLICY_FLAGS
    ),
    # Closed loop: each client's next request arrives only after its
    # previous reply completes.
    f"{CLOSED_LOOP} --json --no-cache",
    *(f"{CLOSED_LOOP} {flags} --json --no-cache" for flags in POLICY_FLAGS),
    # A crash plus hedged retries: cancelled hedge copies leave the
    # replica's ready queue mid-wait.
    "fleet --duration 60 --arrival-rate 6 --platform siracusa-mipi:8x2 "
    "--faults crash:0@10+20 --retry 30:3:0.5:0.2 --json --no-cache",
    # The model registry: the table, the JSON summaries, and the detailed
    # view of the alias and the three paper workloads it builds on.
    "models",
    "models --json",
    "models tinyllama tinyllama-42m-64h tinyllama-42m-gated mobilebert",
)

#: Malformed flags; each must exit 2 with a single ``error:`` line.
ERRORS: Tuple[str, ...] = (
    "fleet --class interactive:fast --no-cache",
    "fleet --class a:1:2:3:4:5 --no-cache",
    "fleet --autoscale siracusa-mipi:many --no-cache",
    "fleet --platform siracusa-mipi:abc --no-cache",
    "fleet --faults crash:x --no-cache",
    "fleet --retry a:b --no-cache",
    "fleet --replay trace.json --seed 1 --no-cache",
    "serve --replay trace.json --seed 1 --no-cache",
    "fleet --router bogus --no-cache",
    "serve --policy bogus --no-cache",
    "tune --parallel 0 --no-cache",
    "tune --checkpoint-every 5 --no-cache",
    "tune --chips 0 --emit-spec",
    "tune --chips -3 --no-cache",
    "tune --link-gbps 0 --emit-spec",
    "tune --link-gbps -1 --no-cache",
    "tune --l2-kib 0 --emit-spec",
    "tune --l2-kib -5 --no-cache",
    "tune --freq-mhz 0 --emit-spec",
    "tune --freq-mhz -200 --no-cache",
    "tune --freq-mhz 1e308 --no-cache",
    "tune --strategies nope --emit-spec",
    "models gpt-4",
    "evaluate --model gpt-4 --no-cache",
)


@contextlib.contextmanager
def scratch_directory() -> Iterator[None]:
    """Run inside a fresh temporary working directory."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(previous)


def run(command: str) -> Tuple[int, str, str]:
    """``(status, stdout, stderr)`` of ``repro <command>``, in-process."""
    argv: List[str] = shlex.split(command)
    out, err = io.StringIO(), io.StringIO()
    with scratch_directory(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        status = cli_main(argv)
    return status, out.getvalue(), err.getvalue()


def stdout_of(command: str) -> str:
    """The stdout of a command that must succeed."""
    status, out, err = run(command)
    if status != 0:
        raise RuntimeError(f"repro {command} exited {status}: {err}")
    return out


def error_of(command: str) -> Dict[str, object]:
    """The exit status and stderr of a command that must fail."""
    status, out, err = run(command)
    if status == 0 or out:
        raise RuntimeError(f"repro {command} did not fail: {out}")
    return {"status": status, "stderr": err}


def golden_document() -> Dict[str, Dict[str, object]]:
    """Recompute every pinned command."""
    return {
        "emit_spec": {command: stdout_of(command) for command in EMIT_SPEC},
        "json": {command: stdout_of(command) for command in JSON_RUNS},
        "errors": {command: error_of(command) for command in ERRORS},
    }


def render(document: Dict[str, Dict[str, object]]) -> str:
    """The committed text form: sorted keys, one command per entry."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> None:
    """Write the golden document next to this script."""
    GOLDEN_PATH.write_text(render(golden_document()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
