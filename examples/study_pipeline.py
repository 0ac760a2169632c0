#!/usr/bin/env python3
"""Study pipelines: a whole experiment as one replayable JSON document.

The spec layer (:mod:`repro.spec`) turns every verb of the library into
data: a :class:`~repro.spec.StudySpec` names a sequence of stages —
evaluate, sweep, compare, serve, tune — that execute through one shared
(and therefore cache-hot) session, with later stages referencing earlier
ones.  This example walks the full loop:

1. load the shipped ``paper-pipeline`` study (committed as
   ``src/repro/spec/shipped/paper_pipeline.json``): a chip-count sweep, the
   Table I ablation, a design-space search pinned to the sweep's fastest
   chip count (``chips_from``), and a serving run on the tuned design
   (``platform_from``),
2. run it with :class:`repro.api.Study` and read stage results back as
   native objects,
3. show that artifacts are byte-deterministic — two independent runs
   write identical files, which is what makes a committed study a
   reproducibility contract,
4. round-trip the spec through JSON and edit it as data.

The same pipeline runs from the command line::

    repro study run paper-pipeline --output-dir out/
    repro study run src/repro/spec/shipped/paper_pipeline.json

and any ordinary invocation can be captured as a replayable spec with
``--emit-spec`` (e.g. ``repro sweep --chips 1 2 4 8 --emit-spec``).

Run with: ``python examples/study_pipeline.py``
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import Study
from repro.spec import get_study, loads


def main() -> None:
    spec = get_study("paper-pipeline")
    print(f"Study {spec.name!r}: {spec.description}")
    print(f"Stages: {', '.join(spec.stage_names)}")
    print()

    # ------------------------------------------------------------------
    # 1+2. Run the pipeline; every stage shares one session.
    # ------------------------------------------------------------------
    result = Study(spec).run()
    print(result.render())
    print()

    sweep = result.stage("sweep").result          # an EvalSweep
    tuned = result.stage("tune").result           # a TuneResult
    served = result.stage("serve").result         # a ServingReport
    fastest = min(sweep.results, key=lambda r: r.block_cycles)
    print(f"Sweep's fastest chip count : {fastest.num_chips} "
          f"(the tune stage pinned its 'chips' axis to it)")
    best = tuned.best()
    print(f"Tuned design               : {dict(best.point)}")
    print(f"Served on the tuned design : {served.num_chips} chips, "
          f"p95 TTFT {served.metrics.ttft.p95 * 1e3:.1f} ms")
    print()

    # ------------------------------------------------------------------
    # 3. Byte-determinism: two fresh runs write identical artifacts.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as scratch:
        dir_a, dir_b = Path(scratch) / "a", Path(scratch) / "b"
        Study(get_study("paper-pipeline")).run(dir_a)
        Study(get_study("paper-pipeline")).run(dir_b)
        names = sorted(path.name for path in dir_a.iterdir())
        identical = all(
            (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            for name in names
        )
    print(f"Artifacts ({', '.join(names)}) byte-identical across runs: "
          f"{identical}")
    print()

    # ------------------------------------------------------------------
    # 4. Specs are data: serialise, edit, re-validate.
    # ------------------------------------------------------------------
    document = spec.to_json()
    reparsed = loads(document)
    print(f"JSON round-trip preserves the spec: {reparsed == spec}")
    smaller = document.replace('"budget": 12', '"budget": 6')
    variant = loads(smaller)
    variant.validate()
    print("Edited variant (tune budget 12 -> 6) validates: True")


if __name__ == "__main__":
    main()
