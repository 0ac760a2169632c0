"""Regenerate ``paper_golden.json``, the pinned numbers of the paper's evaluation.

The golden document holds, with every float at full ``repr`` precision:

* every chip-count sweep behind Fig. 4, 5 and 6;
* the 8-chip Table I comparison of the four ablation strategies;
* the nine headline numbers of the abstract and Sec. V-B;
* each registered model (the ``tinyllama`` alias excluded) under the
  ``paper`` strategy, autoregressive at context 128, on one chip and on
  the most chips it partitions to (8, or 4 for ``mobilebert`` and
  ``gqa-moe-tiny``);
* the per-stage artefact sha256 of every shipped study.

``tests/integration/test_paper_golden.py`` recomputes the document and
compares it with ``==``.  A change that moves any number fails that test;
re-pin only on purpose, and say why in the change log.  Regenerate from
the repository root with::

    PYTHONPATH=src python tests/data/make_paper_golden.py

``--diff`` recomputes the document and prints each value that differs
from the committed file, with its old value, new value and relative
change, without writing anything; quote it when re-pinning.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import Session, Study, autoregressive, encoder, prompt
from repro.analysis import headline_metrics
from repro.models.registry import get_model
from repro.models import mobilebert, tinyllama_42m, tinyllama_scaled
from repro.spec.studies import get_study

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "paper_golden.json"

#: Model registry name -> the most chips it partitions to.
MODEL_CHIPS = {
    "encdec-small": 8,
    "gqa-1b": 8,
    "gqa-moe-tiny": 4,
    "longctx-4k": 8,
    "mobilebert": 4,
    "moe-8x": 8,
    "mqa-270m": 8,
    "tinyllama-42m": 8,
    "tinyllama-42m-64h": 8,
    "tinyllama-42m-gated": 8,
}

#: Every shipped study; each one's artefact digests are pinned.
STUDIES = (
    "chaos-capacity",
    "dse-budget",
    "dse-scale",
    "fig4",
    "fig5",
    "fig6",
    "fleet-capacity",
    "headline",
    "model-zoo",
    "paper-pipeline",
    "platform-tuning",
    "quickstart",
    "serving-capacity",
    "table1",
)


def _sweeps(session: Session) -> Dict[str, Any]:
    """Every Fig. 4/5/6 sweep, keyed by panel."""
    scaled = tinyllama_scaled()
    tinyllama_counts = (1, 2, 4, 8)
    scaled_counts = (16, 32, 64)
    scalability_counts = (1, 2, 4, 8, 16, 32, 64)
    sweeps = {
        "fig4a": (autoregressive(tinyllama_42m(), 128), tinyllama_counts),
        "fig4b": (prompt(tinyllama_42m(), 16), tinyllama_counts),
        "fig4c": (encoder(mobilebert(), 268), (1, 2, 4)),
        "fig5a_scaled": (autoregressive(scaled, 128), scaled_counts),
        "fig5b_scaled": (prompt(scaled, 16), scaled_counts),
        "fig6_autoregressive": (autoregressive(scaled, 128), scalability_counts),
        "fig6_prompt": (prompt(scaled, 16), scalability_counts),
    }
    return {
        name: session.sweep(workload, chips).to_dict()
        for name, (workload, chips) in sweeps.items()
    }


def _models(session: Session) -> Dict[str, Any]:
    """Each registered model on one chip and on its largest partition."""
    document = {}
    for name, most_chips in MODEL_CHIPS.items():
        workload = autoregressive(get_model(name), 128)
        document[name] = {
            str(chips): session.run(workload, chips=chips).to_dict()
            for chips in (1, most_chips)
        }
    return document


def _study_digests() -> Dict[str, Dict[str, str]]:
    """Stage name -> artefact sha256, per study."""
    return {
        name: {
            stage["name"]: stage["sha256"]
            for stage in Study(get_study(name)).run().manifest()["stages"]
        }
        for name in STUDIES
    }


def golden_document() -> Dict[str, Any]:
    """Recompute the whole golden document from the current code."""
    session = Session()
    document = {
        "sweeps": _sweeps(session),
        "table1": session.compare(
            autoregressive(tinyllama_42m(), 128), chips=8
        ).to_dict(),
        "headline": {
            metric.name: metric.measured_value
            for metric in headline_metrics(Study(get_study("headline")).run())
        },
        "models": _models(session),
        "studies": _study_digests(),
    }
    # Tuples become lists, exactly as reading the committed file back.
    return json.loads(render(document))


def render(document: Dict[str, Any]) -> str:
    """The committed text form: sorted keys, exact float ``repr``s."""
    return json.dumps(document, indent=1, sort_keys=True, allow_nan=False) + "\n"


def leaves(node: Any, path: str = "$") -> Iterator[Tuple[str, Any]]:
    """(JSON path, value) of every scalar in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, f"{path}[{index}]")
    else:
        yield path, node


def diff(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """One line per changed leaf: path, old value, new value, relative change."""
    before, after = dict(leaves(old)), dict(leaves(new))
    lines = []
    for path in sorted(before.keys() | after.keys()):
        was, now = before.get(path, "<absent>"), after.get(path, "<absent>")
        if was == now:
            continue
        line = f"{path}: {was!r} -> {now!r}"
        numbers = all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in (was, now)
        )
        if numbers and was != 0:
            line += f" ({(now - was) / abs(was):+.3%})"
        lines.append(line)
    return lines


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Write the golden document next to this script, or diff against it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print every value that differs from the committed golden "
        "and write nothing",
    )
    args = parser.parse_args(argv)
    document = golden_document()
    if args.diff:
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        print("\n".join(diff(committed, document)) or "no change")
        return
    GOLDEN_PATH.write_text(render(document), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
