"""Client-side resilience for external scoring calls (§7.2 made real).

:class:`ResilientScorer` wraps a serving tool's ``score`` coroutine with
the standard microservice-client defence stack: per-attempt timeouts,
exponential backoff retries with seeded jitter, a circuit breaker with
half-open probing, and graceful degradation once retries are exhausted —
shed the batch, fall back to an embedded library, or propagate.

The wrapper is transparent on the happy path: with no timeout configured
it delegates straight into the inner coroutine, scheduling no extra
events and drawing no randomness, so fault-free runs stay byte-identical
to unwrapped ones.
"""

from __future__ import annotations

import typing

from repro.errors import TransientError
from repro.faults.plan import ResiliencePolicy
from repro.simul import Environment, Event
from repro.tracing.spans import OPEN, chained_stages

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simul import RandomStreams


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    closed -> open after ``threshold`` consecutive failures; open ->
    half-open after ``reset_after`` seconds, letting exactly one probe
    through; the probe's outcome closes or re-opens the circuit.
    ``threshold=None`` disables the breaker (always closed).
    """

    def __init__(
        self, env: Environment, threshold: int | None, reset_after: float
    ) -> None:
        self.env = env
        self.threshold = threshold
        self.reset_after = reset_after
        self.state = "closed"
        self.opens = 0
        self.fast_fails = 0
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    def allow(self) -> bool:
        """May a request go out now? (False = fail fast.)"""
        if self.threshold is None or self.state == "closed":
            return True
        if self.state == "open":
            if self.env.now - self._opened_at >= self.reset_after:
                self.state = "half_open"
                self._probe_in_flight = True
                return True
            self.fast_fails += 1
            return False
        # half-open: one probe at a time.
        if self._probe_in_flight:
            self.fast_fails += 1
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        if self.threshold is None:
            return
        self._consecutive_failures = 0
        self._probe_in_flight = False
        self.state = "closed"

    def record_failure(self) -> None:
        if self.threshold is None:
            return
        self._consecutive_failures += 1
        if self.state == "half_open":
            self._trip()
        elif (
            self.state == "closed"
            and self._consecutive_failures >= self.threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = "open"
        self.opens += 1
        self._opened_at = self.env.now
        self._probe_in_flight = False


class ResilientScorer:
    """Duck-typed serving-tool wrapper adding timeouts/retries/fallback.

    Engines and the runner only touch ``kind``, ``load``, ``score``,
    ``costs`` and ``requests_served`` — all delegated — so the wrapper
    slots in wherever a :class:`~repro.serving.base.ServingTool` goes.
    """

    def __init__(
        self,
        env: Environment,
        inner: typing.Any,
        policy: ResiliencePolicy,
        rng: "RandomStreams",
        fallback: typing.Any = None,
    ) -> None:
        self.env = env
        self.inner = inner
        self.policy = policy
        self.rng = rng
        self.fallback = fallback
        self.breaker = CircuitBreaker(
            env, policy.breaker_threshold, policy.breaker_reset
        )
        self.retries = 0
        self.timeouts = 0
        self.failures = 0
        self.shed = 0
        self.fallbacks = 0
        self._fallback_ready: Event | None = None
        self._register_metrics(getattr(inner, "metrics", None))

    def _register_metrics(self, registry: typing.Any) -> None:
        if registry is None or not getattr(registry, "enabled", False):
            return
        registry.counter(
            "resilience_retries",
            help="scoring attempts retried after a transient failure",
            fn=lambda: self.retries,
        )
        registry.counter(
            "resilience_timeouts",
            help="scoring attempts abandoned at the client-side deadline",
            fn=lambda: self.timeouts,
        )
        registry.counter(
            "resilience_shed",
            help="batches dropped after retries were exhausted",
            fn=lambda: self.shed,
        )
        registry.counter(
            "resilience_fallbacks",
            help="batches scored on the embedded fallback library",
            fn=lambda: self.fallbacks,
        )
        registry.counter(
            "resilience_breaker_opens",
            help="times the circuit breaker tripped open",
            fn=lambda: self.breaker.opens,
        )
        registry.gauge(
            "resilience_breaker_state",
            help="circuit state: 0 closed, 1 half-open, 2 open",
            fn=lambda: {"closed": 0, "half_open": 1, "open": 2}[self.breaker.state],
        )

    # -- delegated serving-tool surface ---------------------------------

    @property
    def kind(self) -> str:
        return self.inner.kind

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def costs(self) -> typing.Any:
        return self.inner.costs

    @property
    def tracer(self) -> typing.Any:
        return self.inner.tracer

    @property
    def loaded(self) -> bool:
        return self.inner.loaded

    @property
    def requests_served(self) -> int:
        served = self.inner.requests_served
        if self.fallback is not None:
            served += self.fallback.requests_served
        return served

    def load(self) -> typing.Generator:
        yield from self.inner.load()

    # -- the resilient call -----------------------------------------------

    def score(
        self, bsz: int, vectorized: bool = False, ctx: typing.Any = None
    ) -> typing.Generator:
        """Coroutine: score with retries; returns the inner result, the
        fallback's result, or None when the batch was shed."""
        attempt = 0
        while True:
            if not self.breaker.allow():
                result = yield from self._degrade(
                    bsz, vectorized, ctx, reason="circuit breaker open"
                )
                return result
            try:
                result = yield from self._attempt(bsz, vectorized, ctx)
            except TransientError as error:
                self.failures += 1
                self.breaker.record_failure()
                if attempt < self.policy.retries:
                    attempt += 1
                    self.retries += 1
                    yield from chained_stages(
                        self.env, self.tracer, ctx,
                        "resilience.backoff", self._backoff_delay(attempt),
                        closed=True, attrs={"attempt": attempt},
                    )
                    continue
                result = yield from self._degrade(
                    bsz, vectorized, ctx, reason=str(error)
                )
                return result
            else:
                self.breaker.record_success()
                return result

    def _attempt(
        self, bsz: int, vectorized: bool, ctx: typing.Any
    ) -> typing.Generator:
        if self.policy.timeout is None:
            result = yield from self.inner.score(bsz, vectorized=vectorized, ctx=ctx)
            return result
        call = self.env.process(
            self.inner.score(bsz, vectorized=vectorized, ctx=ctx)
        )
        deadline = self.env.timeout(self.policy.timeout)
        yield self.env.any_of([call, deadline])
        if call.processed and call.ok:
            return call.value
        # Deadline won: abandon the in-flight request. The server may
        # still complete it (wasted work), but the reply is discarded.
        if call.is_alive:
            call.interrupt("client timeout")
        self.timeouts += 1
        raise TransientError(
            f"client timeout after {self.policy.timeout}s"
        )

    def _open(self, ctx: typing.Any, name: str) -> int | None:
        """Begin a span on a traced record's trace; None when untraced."""
        trace = getattr(ctx, "trace", None)
        if trace is None:
            return None
        return self.tracer.stages(trace, self.env.now, (name,), (OPEN,))

    def _backoff_delay(self, attempt: int) -> float:
        delay = min(
            self.policy.backoff_max,
            self.policy.backoff_base * self.policy.backoff_factor ** (attempt - 1),
        )
        if self.policy.jitter > 0:
            roll = float(self.rng.stream("resilience.jitter").uniform())
            delay *= 1.0 + self.policy.jitter * (2.0 * roll - 1.0)
        return delay

    def _degrade(
        self, bsz: int, vectorized: bool, ctx: typing.Any, reason: str
    ) -> typing.Generator:
        mode = self.policy.on_exhausted
        if mode == "raise":
            raise TransientError(f"retries exhausted: {reason}")
        if mode == "fallback" and self.fallback is not None:
            self.fallbacks += 1
            yield from self._ensure_fallback_loaded(ctx)
            span = self._open(ctx, "resilience.fallback")
            result = yield from self.fallback.score(
                bsz, vectorized=vectorized, ctx=ctx
            )
            if span is not None:
                self.tracer.end(span)
            return result
        self.shed += 1
        return None

    def _ensure_fallback_loaded(self, ctx: typing.Any) -> typing.Generator:
        """Load the embedded fallback once, on first use; concurrent
        degraders wait on the same load instead of double-charging it."""
        if self._fallback_ready is None:
            self._fallback_ready = Event(self.env)
            span = self._open(ctx, "resilience.fallback_load")
            yield from self.fallback.load()
            if span is not None:
                self.tracer.end(span)
            self._fallback_ready.succeed()
        elif not self._fallback_ready.processed:
            yield self._fallback_ready
