"""Request lifecycle types of the serving simulator.

A serving workload is a stream of :class:`Request` objects (one user query
each: arrival time, prompt length, reply length, priority).  While a request
is in the system the simulator tracks it as a mutable :class:`ActiveRequest`
— the view scheduling policies see — and once its last token is emitted it
is frozen into an immutable :class:`RequestRecord` carrying the full
timeline, from which every latency metric (TTFT, TPOT, end-to-end) derives.

The token accounting follows serving practice: the prefill pass emits the
*first* output token, and each subsequent token costs one autoregressive
decode step at a growing context length, so a request with ``output_tokens``
tokens performs ``output_tokens - 1`` decode steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional

from ..errors import ConfigurationError, SimulationError
from ..spec.base import SpecBase


class RequestPhase(Enum):
    """Where a request currently is in its lifecycle."""

    QUEUED = "queued"
    PREFILL = "prefill"
    DECODE = "decode"
    DONE = "done"
    #: Terminal failure states of the fault-injected fleet engine: the
    #: request's replica crashed and the retry budget ran out, or the
    #: request never entered service before its deadline.
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class Request(SpecBase):
    """One user query submitted to the serving system.

    Spec kind ``request`` (an entry of a replay trace file, decoded with
    :meth:`~repro.spec.base.SpecBase.from_dict`; not a document kind of
    its own).

    Attributes:
        request_id: Unique id, also the deterministic tie-breaker everywhere.
        arrival_s: Submission time in virtual seconds.
        prompt_tokens: Prompt length processed by the prefill pass.
        output_tokens: Total reply length (the prefill emits the first
            token, so ``output_tokens - 1`` decode steps follow).
        priority: Scheduling priority, non-negative; larger values are
            more urgent (only the ``priority`` policy looks at it).
        client_id: Issuing client for closed-loop traces, else ``None``.
    """

    kind = "request"

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    priority: int = 0
    client_id: Optional[int] = None

    def __init__(
        self,
        request_id: int,
        arrival_s: float,
        prompt_tokens: int,
        output_tokens: int,
        priority: int = 0,
        client_id: Optional[int] = None,
    ) -> None:
        # A frozen dataclass's generated __init__ sets each field with
        # object.__setattr__; storing into the instance dict halves the
        # cost of a constructor that every arrival pays.
        fields = self.__dict__
        fields["request_id"] = request_id
        fields["arrival_s"] = arrival_s
        fields["prompt_tokens"] = prompt_tokens
        fields["output_tokens"] = output_tokens
        fields["priority"] = priority
        fields["client_id"] = client_id
        if request_id < 0:
            raise ConfigurationError("request_id must be non-negative")
        if not math.isfinite(arrival_s):
            raise ConfigurationError(f"arrival_s must be finite, got {arrival_s}")
        if arrival_s < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if prompt_tokens <= 0:
            raise ConfigurationError("prompt_tokens must be positive")
        if output_tokens <= 0:
            raise ConfigurationError("output_tokens must be positive")
        if priority < 0:
            raise ConfigurationError("priority must be non-negative")

    @property
    def total_tokens(self) -> int:
        """Prompt plus reply tokens (the final KV-cache occupancy)."""
        return self.prompt_tokens + self.output_tokens

    def to_dict(self) -> Dict[str, Any]:
        """The trace-replay schema: every field, and no ``kind`` tag."""
        return {
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "priority": self.priority,
            "client_id": self.client_id,
        }


@dataclass
class ActiveRequest:
    """Mutable in-flight state of one admitted request.

    This is the read-only view handed to scheduling policies: a policy may
    inspect any field to rank requests but must not mutate them (the
    simulator owns the state transitions).

    Attributes:
        request: The immutable submitted request.
        phase: Current lifecycle phase.
        first_scheduled_s: When the engine first picked the request up
            (prefill start), ``None`` while still queued.
        first_token_s: When the prefill pass completed and emitted the
            first token, ``None`` until then.
        tokens_emitted: Output tokens produced so far.
        energy_joules: Energy charged to this request so far.
        attempt: Which dispatch this copy is (0 first try; a crash
            failover re-dispatches a fresh copy with ``attempt`` + 1).
        deadline_s: Virtual time by which the request must enter service
            under a retry policy's (or its class's) timeout, else
            ``None``.
        hedged: Whether this copy is the hedged second dispatch.
    """

    request: Request
    phase: RequestPhase = RequestPhase.QUEUED
    first_scheduled_s: Optional[float] = None
    first_token_s: Optional[float] = None
    tokens_emitted: int = 0
    energy_joules: float = 0.0
    attempt: int = 0
    deadline_s: Optional[float] = None
    hedged: bool = False

    @property
    def prefill_done(self) -> bool:
        """Whether the prefill pass has run (first token emitted)."""
        return self.first_token_s is not None

    @property
    def remaining_tokens(self) -> int:
        """Output tokens still to emit."""
        return self.request.output_tokens - self.tokens_emitted

    @property
    def is_done(self) -> bool:
        """Whether the reply is complete."""
        return self.remaining_tokens <= 0

    def finish(self, finish_s: float) -> "RequestRecord":
        """Freeze the completed request into an immutable record."""
        if not self.is_done:
            raise SimulationError(
                f"request {self.request.request_id} finished with "
                f"{self.remaining_tokens} tokens outstanding"
            )
        assert self.first_scheduled_s is not None
        assert self.first_token_s is not None
        return RequestRecord(
            request=self.request,
            first_scheduled_s=self.first_scheduled_s,
            first_token_s=self.first_token_s,
            finish_s=finish_s,
            energy_joules=self.energy_joules,
        )


@dataclass(frozen=True)
class RequestRecord:
    """Immutable timeline of one completed request.

    Attributes:
        request: The request as submitted.
        first_scheduled_s: Prefill start (end of the queueing delay).
        first_token_s: First output token (prefill completion).
        finish_s: Last output token.
        energy_joules: Energy of the request's prefill and decode work.
    """

    request: Request
    first_scheduled_s: float
    first_token_s: float
    finish_s: float
    energy_joules: float

    def __post_init__(self) -> None:
        ordered = (
            self.request.arrival_s
            <= self.first_scheduled_s
            <= self.first_token_s
            <= self.finish_s
        )
        if not ordered:
            raise SimulationError(
                f"request {self.request.request_id} has a non-causal timeline"
            )
        if self.energy_joules < 0:
            raise SimulationError("request energy cannot be negative")

    # ------------------------------------------------------------------
    # Latency views
    # ------------------------------------------------------------------
    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before the engine first picked the request up."""
        return self.first_scheduled_s - self.request.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time to first token, measured from arrival."""
        return self.first_token_s - self.request.arrival_s

    @property
    def e2e_s(self) -> float:
        """End-to-end latency: arrival to last token."""
        return self.finish_s - self.request.arrival_s

    @property
    def decode_s(self) -> float:
        """Wall time between the first and the last token."""
        return self.finish_s - self.first_token_s

    @property
    def tpot_s(self) -> float:
        """Mean time per output token after the first (0 for 1-token replies)."""
        decode_steps = self.request.output_tokens - 1
        if decode_steps <= 0:
            return 0.0
        return self.decode_s / decode_steps

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form, request fields inlined."""
        record = self.request.to_dict()
        record.update(
            {
                "first_scheduled_s": self.first_scheduled_s,
                "first_token_s": self.first_token_s,
                "finish_s": self.finish_s,
                "energy_joules": self.energy_joules,
                "queue_wait_s": self.queue_wait_s,
                "ttft_s": self.ttft_s,
                "tpot_s": self.tpot_s,
                "e2e_s": self.e2e_s,
            }
        )
        return record
