"""The Study runner: execute a :class:`~repro.spec.StudySpec` end to end.

A *study* is a pipeline of named stages — any mix of evaluate, sweep,
compare, serve, fleet, and tune specs — executed in order through **one shared
session**, so a block evaluation performed by the sweep stage is a cache
hit for the compare, serve, and tune stages that follow.  Later stages may
reference earlier ones (``platform_from`` a tune stage, ``chips_from`` a
sweep stage); the runner resolves those references against completed
outcomes.

Each stage's payload is its result's ``to_dict()``, the document the
CLI's ``--json`` flag emits minus session cache statistics (which depend
on history rather than inputs), and :meth:`Study.run` can write the whole
pipeline as a byte-deterministic artifact directory::

    out/
      study.json        # manifest: schema, spec, stage index + sha256s
      <stage>.json      # one artifact per stage, in execution order

Two runs of the same spec produce byte-identical artifacts, which makes a
committed study file a reproducibility contract: anyone can re-run it and
diff the directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import AnalysisError
from ..spec.base import SPEC_SCHEMA_VERSION
from ..spec.runner import execute
from ..spec.specs import StudySpec
from .session import Session

__all__ = ["StageOutcome", "Study", "StudyResult"]


def _dumps(document: Dict[str, Any]) -> str:
    """The canonical artifact text: sorted keys, indent 2, trailing newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class StageOutcome:
    """One executed stage of a study.

    Attributes:
        name: The stage's name (also its artifact filename stem).
        kind: The stage spec's kind tag (``sweep``, ``serve``, ...).
        result: The native result object the equivalent imperative
            ``Session`` call would have returned.
        payload: The JSON-ready artifact body, ``result.to_dict()``.
    """

    name: str
    kind: str
    result: Any
    payload: Dict[str, Any]

    @property
    def artifact_name(self) -> str:
        """Filename of this stage's artifact inside the study directory."""
        return f"{self.name}.json"

    def artifact_text(self) -> str:
        """The byte-deterministic artifact document."""
        return _dumps(self.payload)


@dataclass(frozen=True)
class StudyResult:
    """Everything one study run produced.

    Attributes:
        spec: The executed study spec.
        stages: Stage outcomes, in execution order.
        output_dir: Where artifacts were written (``None`` if kept
            in memory only).
    """

    spec: StudySpec
    stages: Tuple[StageOutcome, ...]
    output_dir: Optional[Path] = None

    def stage(self, name: str) -> StageOutcome:
        """Look one executed stage up by name."""
        for outcome in self.stages:
            if outcome.name == name:
                return outcome
        raise AnalysisError(
            f"study {self.spec.name!r} has no stage {name!r}; stages: "
            + ", ".join(outcome.name for outcome in self.stages)
        )

    def manifest(self) -> Dict[str, Any]:
        """The ``study.json`` document: spec plus the artifact index."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": "study_manifest",
            "name": self.spec.name,
            "description": self.spec.description,
            "spec": self.spec.to_dict(),
            "stages": [
                {
                    "name": outcome.name,
                    "kind": outcome.kind,
                    "artifact": outcome.artifact_name,
                    "sha256": hashlib.sha256(
                        outcome.artifact_text().encode("utf-8")
                    ).hexdigest(),
                }
                for outcome in self.stages
            ],
        }

    def to_document(self) -> Dict[str, Any]:
        """Manifest plus inline stage payloads (``repro study run --json``)."""
        document = self.manifest()
        for entry, outcome in zip(document["stages"], self.stages):
            entry["payload"] = outcome.payload
        return document

    def render(self) -> str:
        """Plain-text run summary: one headline line per stage."""
        lines = [
            f"Study {self.spec.name!r}: {len(self.stages)} stage(s)"
            + (f" -> {self.output_dir}" if self.output_dir is not None else "")
        ]
        for outcome in self.stages:
            lines.append(f"  [{outcome.kind:<8}] {outcome.name}: "
                         + _headline(outcome))
        return "\n".join(lines)


def _headline(outcome: StageOutcome) -> str:
    """One human-readable line summarising a stage outcome."""
    result = outcome.result
    if outcome.kind == "evaluate":
        return (
            f"{result.workload.name} on {result.num_chips} chip(s): "
            f"{result.block_cycles:,.0f} cycles/block"
        )
    if outcome.kind == "sweep":
        speedups = result.speedups()
        last = result.results[-1]
        return (
            f"{result.workload.name} x{len(result.results)} chip counts, "
            f"{last.num_chips} chips: {speedups[last.num_chips]:.2f}x"
        )
    if outcome.kind == "compare":
        best = result.best()
        return (
            f"{len(result.results)} strategies on {result.num_chips} "
            f"chip(s); fastest: {best.strategy}"
        )
    if outcome.kind == "serve":
        return (
            f"{result.metrics.requests} requests, policy {result.policy}: "
            f"p95 TTFT {result.metrics.ttft.p95 * 1e3:.1f} ms"
        )
    if outcome.kind == "fleet":
        return (
            f"{result.result.completed} requests on "
            f"{len(result.result.replicas)} replica(s), router "
            f"{result.router}: p99 TTFT {result.result.ttft.p99 * 1e3:.1f} ms"
        )
    if outcome.kind == "tune":
        return (
            f"searcher {result.searcher}, {len(result.candidates)} unique "
            f"candidates, front of {len(result.front)}"
        )
    return ""


class Study:
    """Executes a :class:`~repro.spec.StudySpec` through one shared session.

    Args:
        spec: The study to run.  It is validated eagerly (names and stage
            references), so a bad spec fails here, not mid-pipeline.
        session: Optional session to evaluate through.  The default is a
            fresh in-memory :class:`Session`, which makes artifacts
            byte-deterministic; pass a persistent session (as the CLI
            does) to share the on-disk evaluation cache — artifacts are
            unaffected, because they never include cache statistics.
    """

    def __init__(
        self, spec: StudySpec, *, session: Optional[Session] = None
    ) -> None:
        if not isinstance(spec, StudySpec):
            raise AnalysisError(
                f"Study needs a StudySpec, got {type(spec).__name__}"
            )
        spec.validate()
        self.spec = spec
        self.session = session if session is not None else Session()

    def run(
        self,
        output_dir: Optional[Union[str, Path]] = None,
        *,
        parallel: Optional[int] = None,
    ) -> StudyResult:
        """Execute every stage in order; optionally write the artifacts.

        Returns the :class:`StudyResult` with every stage's native result
        object and JSON payload.  With ``output_dir``, the directory is
        created if needed and receives one ``<stage>.json`` per stage
        plus the ``study.json`` manifest.

        ``parallel`` overrides the evaluation worker count for every tune
        stage (see :meth:`Session.tune`); artifacts are unaffected because
        parallel tune is byte-identical to serial.

        Tune stages that set ``checkpoint_every`` are checkpointed into
        ``<output_dir>/<stage>.checkpoint.json`` and automatically resume
        from that file when a previous run of the same study left one
        behind — interrupt ``repro study run``, re-run it with the same
        output directory, and the search picks up where it stopped
        without re-paying for evaluated points.
        """
        resolved_dir = Path(output_dir) if output_dir is not None else None
        if resolved_dir is not None:
            # Create upfront so mid-run tune checkpoints have a home.
            resolved_dir.mkdir(parents=True, exist_ok=True)
        outcomes: Dict[str, StageOutcome] = {}
        ordered = []
        for stage in self.spec.stages:
            spec = stage.spec
            overrides: Dict[str, Any] = {}
            if spec.kind == "tune":
                if parallel is not None:
                    spec = replace(spec, parallel=parallel)
                if (
                    resolved_dir is not None
                    and spec.checkpoint_every is not None
                ):
                    checkpoint = resolved_dir / f"{stage.name}.checkpoint.json"
                    overrides["checkpoint"] = str(checkpoint)
                    if checkpoint.exists():
                        overrides["resume"] = str(checkpoint)
            result = execute(self.session, spec, stages=outcomes, **overrides)
            outcome = StageOutcome(
                name=stage.name,
                kind=stage.spec.kind,
                result=result,
                payload=result.to_dict(),
            )
            outcomes[stage.name] = outcome
            ordered.append(outcome)
        study = StudyResult(
            spec=self.spec, stages=tuple(ordered), output_dir=resolved_dir
        )
        if resolved_dir is not None:
            for outcome in ordered:
                (resolved_dir / outcome.artifact_name).write_text(
                    outcome.artifact_text(), encoding="utf-8"
                )
            (resolved_dir / "study.json").write_text(
                _dumps(study.manifest()), encoding="utf-8"
            )
        return study
