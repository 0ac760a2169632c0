"""Seeded synthetic traffic generators and trace replay.

A *trace* is a declarative, frozen description of a traffic pattern —
arrival process plus prompt/reply length distributions — that materialises
into a concrete request stream only when :meth:`~TrafficTrace.build` is
called with a seed.  The same trace object therefore drives any number of
simulations, and two builds with the same seed are identical request for
request, which is what makes ``repro serve`` byte-reproducible.

Five generators ship with the library:

* :class:`PoissonTrace` — memoryless open-loop arrivals at a fixed rate;
* :class:`BurstyTrace` — a two-state Markov-modulated Poisson process
  (MMPP-2) alternating between a base and a burst rate;
* :class:`DiurnalTrace` — a day-long sinusoidal rate profile with
  optional spike bursts, generated by Poisson thinning; it also exposes a
  lazy :meth:`~DiurnalTrace.stream` so million-request fleet runs never
  materialise the request list;
* :class:`ClosedLoopTrace` — a fixed population of clients, each thinking
  after a reply before submitting its next request (arrivals depend on
  completions, so the source issues follow-up requests to the simulator);
* :class:`ReplayTrace` — verbatim replay of a recorded request list,
  loadable from the JSON written by :func:`save_trace`.

The generators draw through CPython's own sampling formulas written out
in their loops — ``expovariate(rate)`` as ``-log(1.0 - random()) /
rate``, and a length as Kinderman–Monahan ``normalvariate`` followed by
``exp`` (``lognormvariate``) — so each stream consumes the same
``random()`` values in the same order as the ``random.Random`` method
calls would, and yields equal requests.  ``tests/trace_oracle.py`` keeps
the method-call versions and a property test holds every generator to
them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..errors import ConfigurationError, SpecError
from .request import Request, RequestRecord

__all__ = [
    "BurstyTrace",
    "ClosedLoopTrace",
    "DiurnalTrace",
    "LengthModel",
    "PoissonTrace",
    "ReplayTrace",
    "RequestSource",
    "TrafficTrace",
    "load_trace",
    "save_trace",
]

#: ``random.NV_MAGICCONST``, computed as :mod:`random` computes it.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


# ----------------------------------------------------------------------
# Length distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LengthModel:
    """Log-normal prompt/reply length distributions with hard bounds.

    LLM serving traces have heavy-tailed lengths; a bounded log-normal
    captures that with two parameters per side.  ``sigma`` is the shape of
    the underlying normal (0 degenerates to the mean).

    Attributes:
        prompt_mean: Mean prompt length in tokens.
        output_mean: Mean reply length in tokens.
        sigma: Log-normal shape parameter shared by both sides.
        prompt_min / prompt_max: Clamp bounds of sampled prompt lengths.
        output_min / output_max: Clamp bounds of sampled reply lengths.
    """

    prompt_mean: float = 64.0
    output_mean: float = 32.0
    sigma: float = 0.5
    prompt_min: int = 1
    prompt_max: int = 256
    output_min: int = 1
    output_max: int = 128

    def __post_init__(self) -> None:
        if self.prompt_mean <= 0 or self.output_mean <= 0:
            raise ConfigurationError("mean lengths must be positive")
        if self.sigma < 0:
            raise ConfigurationError("sigma must be non-negative")
        if not (1 <= self.prompt_min <= self.prompt_max):
            raise ConfigurationError("need 1 <= prompt_min <= prompt_max")
        if not (1 <= self.output_min <= self.output_max):
            raise ConfigurationError("need 1 <= output_min <= output_max")
        if not self.prompt_min <= self.prompt_mean <= self.prompt_max:
            raise ConfigurationError(
                f"prompt_mean {self.prompt_mean:g} outside "
                f"[{self.prompt_min}, {self.prompt_max}]; clamping would "
                "silently distort the workload — widen the bounds instead"
            )
        if not self.output_min <= self.output_mean <= self.output_max:
            raise ConfigurationError(
                f"output_mean {self.output_mean:g} outside "
                f"[{self.output_min}, {self.output_max}]; clamping would "
                "silently distort the workload — widen the bounds instead"
            )
        # Each side's (mean, min, max, mu of the underlying normal), so a
        # draw never recomputes mu.
        shift = self.sigma**2 / 2.0
        object.__setattr__(self, "_sides", (
            (self.prompt_mean, self.prompt_min, self.prompt_max,
             math.log(self.prompt_mean) - shift),
            (self.output_mean, self.output_min, self.output_max,
             math.log(self.output_mean) - shift),
        ))

    def _samplers(
        self, rng: random.Random
    ) -> Tuple[Callable[[], int], Callable[[], int]]:
        """Draw functions of one prompt length and one reply length.

        A draw is ``rng.lognormvariate(mu, sigma)``, rounded and clamped
        to its side's bounds, with CPython's formulas written out: it
        consumes the same ``random()`` values in the same order as the
        method call.  ``sigma == 0`` draws nothing and gives the mean.
        """
        random_, log, exp = rng.random, math.log, math.exp
        sigma = self.sigma

        def sampler(mean: float, lo: int, hi: int, mu: float) -> Callable[[], int]:
            if sigma == 0:
                length = max(lo, min(hi, round(mean)))
                return lambda: length

            def draw() -> int:
                while True:  # normalvariate (Kinderman and Monahan)
                    u1 = random_()
                    u2 = 1.0 - random_()
                    z = _NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                length = round(exp(mu + z * sigma))
                return lo if length < lo else hi if length > hi else length

            return draw

        prompt, output = self._sides
        return sampler(*prompt), sampler(*output)

    def sample_prompt(self, rng: random.Random) -> int:
        """Draw one prompt length."""
        return self._samplers(rng)[0]()

    def sample_output(self, rng: random.Random) -> int:
        """Draw one reply length."""
        return self._samplers(rng)[1]()

    @property
    def max_context(self) -> int:
        """Largest KV-cache occupancy any sampled request can reach."""
        return self.prompt_max + self.output_max


# ----------------------------------------------------------------------
# The materialised request stream
# ----------------------------------------------------------------------
class RequestSource:
    """A materialised request stream the simulator consumes.

    Open-loop traces put every request in :attr:`initial`; closed-loop
    traces additionally issue follow-up requests when a client's previous
    reply completes (the simulator calls :meth:`follow_up` once per
    completed record).
    """

    def __init__(
        self,
        initial: Iterable[Request],
        follow_up: Optional[Callable[[RequestRecord], Optional[Request]]] = None,
    ) -> None:
        self.initial: Tuple[Request, ...] = tuple(
            sorted(initial, key=lambda r: (r.arrival_s, r.request_id))
        )
        seen = {request.request_id for request in self.initial}
        if len(seen) != len(self.initial):
            raise ConfigurationError("trace contains duplicate request ids")
        self._follow_up = follow_up

    def follow_up(self, record: RequestRecord) -> Optional[Request]:
        """The completed request's successor, if the trace is closed-loop."""
        if self._follow_up is None:
            return None
        return self._follow_up(record)

    @property
    def is_closed_loop(self) -> bool:
        """Whether this source can issue follow-up requests."""
        return self._follow_up is not None


@runtime_checkable
class TrafficTrace(Protocol):
    """What the simulator requires of a traffic description."""

    def build(self, seed: int) -> RequestSource:
        """Materialise the request stream deterministically from ``seed``."""
        ...


def _rng(kind: str, seed: int) -> random.Random:
    """A named, decorrelated random stream (one per trace kind / client)."""
    return random.Random(f"repro.serving:{kind}:{seed}")


def _request_maker(
    rng: random.Random, lengths: LengthModel, priority_levels: int
) -> Callable[..., Request]:
    """``make(request_id, arrival_s, client_id=None)``, drawing from ``rng``.

    Each request draws its priority (with more than one level), then its
    prompt length, then its reply length.
    """
    draw_prompt, draw_output = lengths._samplers(rng)

    def make(request_id: int, arrival_s: float, client_id: Optional[int] = None) -> Request:
        priority = rng.randrange(priority_levels) if priority_levels > 1 else 0
        return Request(request_id, arrival_s, draw_prompt(), draw_output(), priority, client_id)

    return make


# ----------------------------------------------------------------------
# Open-loop generators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonTrace:
    """Open-loop Poisson arrivals at a fixed rate.

    Attributes:
        rate_rps: Mean arrival rate in requests per second.
        duration_s: Arrival horizon; requests arrive in ``[0, duration_s)``
            (the simulator still drains every admitted request).
        lengths: Prompt/reply length distributions.
        priority_levels: Number of uniform priority classes (1 = no
            priorities).
    """

    rate_rps: float
    duration_s: float
    lengths: LengthModel = field(default_factory=LengthModel)
    priority_levels: int = 1

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.priority_levels < 1:
            raise ConfigurationError("priority_levels must be at least 1")

    def build(self, seed: int) -> RequestSource:
        rng = _rng("poisson", seed)
        random_, log, rate = rng.random, math.log, self.rate_rps
        make = _request_maker(rng, self.lengths, self.priority_levels)
        requests: List[Request] = []
        now = -log(1.0 - random_()) / rate
        while now < self.duration_s:
            requests.append(make(len(requests), now))
            now += -log(1.0 - random_()) / rate
        return RequestSource(requests)


@dataclass(frozen=True)
class BurstyTrace:
    """Two-state Markov-modulated Poisson arrivals (base / burst).

    The process alternates between a base state and a burst state with
    exponentially distributed dwell times; within a state, arrivals are
    Poisson at that state's rate.  This is the classic MMPP-2 model of
    flash-crowd traffic.

    Attributes:
        base_rate_rps: Arrival rate in the base state.
        burst_rate_rps: Arrival rate in the burst state.
        duration_s: Arrival horizon.
        mean_base_s: Mean dwell time of the base state.
        mean_burst_s: Mean dwell time of the burst state.
        lengths: Prompt/reply length distributions.
        priority_levels: Number of uniform priority classes.
    """

    base_rate_rps: float
    burst_rate_rps: float
    duration_s: float
    mean_base_s: float = 20.0
    mean_burst_s: float = 5.0
    lengths: LengthModel = field(default_factory=LengthModel)
    priority_levels: int = 1

    def __post_init__(self) -> None:
        if self.base_rate_rps <= 0 or self.burst_rate_rps <= 0:
            raise ConfigurationError("arrival rates must be positive")
        if self.burst_rate_rps < self.base_rate_rps:
            raise ConfigurationError("burst_rate_rps must be >= base_rate_rps")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.mean_base_s <= 0 or self.mean_burst_s <= 0:
            raise ConfigurationError("state dwell times must be positive")
        if self.priority_levels < 1:
            raise ConfigurationError("priority_levels must be at least 1")

    def build(self, seed: int) -> RequestSource:
        rng = _rng("bursty", seed)
        random_, log = rng.random, math.log
        make = _request_maker(rng, self.lengths, self.priority_levels)
        requests: List[Request] = []
        now = 0.0
        in_burst = False
        # Dwell times are expovariate(1 / mean), hence the division.
        state_end = -log(1.0 - random_()) / (1.0 / self.mean_base_s)
        while now < self.duration_s:
            rate = self.burst_rate_rps if in_burst else self.base_rate_rps
            candidate = now + -log(1.0 - random_()) / rate
            if candidate >= state_end:
                # The exponential is memoryless, so jumping to the state
                # boundary and redrawing is statistically exact.
                now = state_end
                in_burst = not in_burst
                dwell = self.mean_burst_s if in_burst else self.mean_base_s
                state_end = now + -log(1.0 - random_()) / (1.0 / dwell)
                continue
            now = candidate
            if now >= self.duration_s:
                break
            requests.append(make(len(requests), now))
        return RequestSource(requests)


@dataclass(frozen=True)
class DiurnalTrace:
    """Day-long sinusoidal arrival rate with optional spike bursts.

    The instantaneous rate is

    ``rate_rps * (1 + amplitude * sin(2 pi (t - phase_s) / period_s))``

    plus the extra rate of every active spike, sampled by Poisson
    thinning (candidates are drawn at the peak rate and accepted with
    probability ``rate(t) / peak``), which is statistically exact for any
    bounded rate profile.  Thinning draws one uniform per candidate, so
    equal seeds give identical streams regardless of how the profile is
    later evaluated.

    Attributes:
        rate_rps: Mean arrival rate around which the sinusoid swings.
        duration_s: Arrival horizon (defaults to one day).
        amplitude: Relative swing of the sinusoid in ``[0, 1]`` (0 is a
            flat Poisson profile, 1 dips to zero at the trough).
        period_s: Period of the sinusoid (defaults to one day).
        phase_s: Time offset of the sinusoid's zero crossing.
        spikes: Flash crowds as ``(start_s, duration_s, extra_rate_rps)``
            triples added on top of the sinusoid while active.
        lengths: Prompt/reply length distributions.
        priority_levels: Number of uniform priority classes.
    """

    rate_rps: float
    duration_s: float = 86_400.0
    amplitude: float = 0.6
    period_s: float = 86_400.0
    phase_s: float = 0.0
    spikes: Tuple[Tuple[float, float, float], ...] = ()
    lengths: LengthModel = field(default_factory=LengthModel)
    priority_levels: int = 1

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigurationError(
                f"amplitude must be in [0, 1], got {self.amplitude:g}"
            )
        if self.period_s <= 0:
            raise ConfigurationError("period_s must be positive")
        if self.priority_levels < 1:
            raise ConfigurationError("priority_levels must be at least 1")
        for spike in self.spikes:
            if len(spike) != 3:
                raise ConfigurationError(
                    "each spike is a (start_s, duration_s, extra_rate_rps) "
                    f"triple, got {spike!r}"
                )
            start_s, spike_duration_s, extra_rate_rps = spike
            if start_s < 0:
                raise ConfigurationError("spike start_s must be non-negative")
            if spike_duration_s <= 0:
                raise ConfigurationError("spike duration_s must be positive")
            if extra_rate_rps <= 0:
                raise ConfigurationError("spike extra_rate_rps must be positive")

    def rate_at(self, time_s: float) -> float:
        """The instantaneous arrival rate at ``time_s``."""
        angle = 2.0 * math.pi * (time_s - self.phase_s) / self.period_s
        rate = self.rate_rps * (1.0 + self.amplitude * math.sin(angle))
        for start_s, spike_duration_s, extra_rate_rps in self.spikes:
            if start_s <= time_s < start_s + spike_duration_s:
                rate += extra_rate_rps
        return max(rate, 0.0)

    @property
    def peak_rate_rps(self) -> float:
        """Upper bound of the rate profile (the thinning envelope)."""
        # Added left to right: sum() compensates from Python 3.12 on, which
        # would move the envelope, and so the arrivals, between interpreters.
        return self.rate_rps * (1.0 + self.amplitude) + reduce(
            add, (extra for _, _, extra in self.spikes), 0
        )

    def stream(self, seed: int) -> Iterable[Request]:
        """Lazily generate the arrival stream in time order.

        The fleet simulator consumes this generator directly, so a
        day-long million-request trace costs O(1) memory; ``build`` wraps
        the same stream, so both paths are request-for-request identical
        for equal seeds.  One loop draws each candidate's gap, evaluates
        :meth:`rate_at` term for term for its thinning test, and draws an
        accepted candidate's request.
        """
        rng = _rng("diurnal", seed)
        random_, log, sin = rng.random, math.log, math.sin
        make = _request_maker(rng, self.lengths, self.priority_levels)
        peak, duration_s = self.peak_rate_rps, self.duration_s
        rate_rps, amplitude = self.rate_rps, self.amplitude
        phase_s, period_s, two_pi = self.phase_s, self.period_s, 2.0 * math.pi
        spikes = tuple((start, start + length, extra) for start, length, extra in self.spikes)
        now = 0.0
        count = 0
        while True:
            now += -log(1.0 - random_()) / peak
            if now >= duration_s:
                return
            rate = rate_rps * (1.0 + amplitude * sin(two_pi * (now - phase_s) / period_s))
            for start_s, end_s, extra_rate_rps in spikes:
                if start_s <= now < end_s:
                    rate += extra_rate_rps
            # With amplitude <= 1 the rate is never negative, so rate_at's
            # clamp at zero cannot change the test.
            if random_() * peak <= rate:
                yield make(count, now)
                count += 1

    def build(self, seed: int) -> RequestSource:
        return RequestSource(self.stream(seed))


# ----------------------------------------------------------------------
# Closed-loop generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClosedLoopTrace:
    """A fixed client population with think times between requests.

    Each of ``clients`` users submits ``requests_per_client`` requests in
    sequence: after receiving the last token of a reply, the client
    "thinks" for an exponentially distributed time and then submits the
    next request.  Arrivals therefore adapt to system load (the defining
    property of a closed loop), which the source expresses by issuing
    follow-up requests as the simulator completes records.

    Attributes:
        clients: Number of concurrent clients.
        requests_per_client: Requests each client submits in total.
        mean_think_s: Mean think time between a reply and the next request.
        lengths: Prompt/reply length distributions.
        priority_levels: Number of uniform priority classes.
    """

    clients: int
    requests_per_client: int
    mean_think_s: float = 1.0
    lengths: LengthModel = field(default_factory=LengthModel)
    priority_levels: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("clients must be at least 1")
        if self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be at least 1")
        if self.mean_think_s <= 0:
            raise ConfigurationError("mean_think_s must be positive")
        if self.priority_levels < 1:
            raise ConfigurationError("priority_levels must be at least 1")

    def build(self, seed: int) -> RequestSource:
        # One decorrelated stream per client keeps a client's behaviour
        # independent of how other clients' completions interleave.
        rngs = [_rng(f"closed:{client}", seed) for client in range(self.clients)]
        makers = [_request_maker(rng, self.lengths, self.priority_levels) for rng in rngs]
        issued = [1] * self.clients
        next_id = [self.clients]  # mutable counter shared with the closure
        think_rate = 1.0 / self.mean_think_s

        def think_s(client: int) -> float:
            return -math.log(1.0 - rngs[client].random()) / think_rate

        initial = [
            makers[client](client, think_s(client), client)
            for client in range(self.clients)
        ]

        def follow_up(record: RequestRecord) -> Optional[Request]:
            client = record.request.client_id
            if client is None or issued[client] >= self.requests_per_client:
                return None
            issued[client] += 1
            arrival = record.finish_s + think_s(client)
            request = makers[client](next_id[0], arrival, client)
            next_id[0] += 1
            return request

        return RequestSource(initial, follow_up)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayTrace:
    """Verbatim replay of a recorded request list (seed is ignored)."""

    requests: Tuple[Request, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ConfigurationError("a replay trace needs at least one request")

    def build(self, seed: int) -> RequestSource:  # noqa: ARG002 - protocol
        return RequestSource(self.requests)


def trace_to_dict(requests: Sequence[Request]) -> Dict[str, object]:
    """The JSON document schema of a recorded trace."""
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    return {"requests": [request.to_dict() for request in ordered]}


def save_trace(requests: Sequence[Request], path: str) -> None:
    """Write a request list as a replayable JSON trace."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_to_dict(requests), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_trace(path: str) -> ReplayTrace:
    """Load a :class:`ReplayTrace` from a JSON trace file.

    Each entry is decoded as a ``request`` spec; an error names the file
    and the entry's JSON path.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    records = document.get("requests") if isinstance(document, dict) else None
    if not isinstance(records, list) or not records:
        raise ConfigurationError(
            f"{path!r} is not a trace file (expected a non-empty 'requests' list)"
        )
    try:
        requests = tuple(
            Request.from_dict(record, f"$.requests[{index}]")
            for index, record in enumerate(records)
        )
    except SpecError as error:
        raise SpecError(f"{path}: {error}") from None
    return ReplayTrace(requests)
