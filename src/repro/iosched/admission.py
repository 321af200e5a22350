"""Admission control: delaying operation dispatch on the virtual clock.

The :class:`~repro.iosched.scheduler.OverlapScheduler` knows every
client's queueing delay — an :class:`AdmissionPolicy` uses that seam to
*shape* when operations dispatch.  The scheduler consults the policy at
the top of every :meth:`~repro.iosched.scheduler.OverlapScheduler.operation`
scope: ``admit`` may push the operation's dispatch time later on the
virtual clock, and ``observe`` feeds back the device time the admitted
operation consumed.  Admission never changes *what* is priced — the
device calls execute in the same order with the same costs — it only
changes *when* the virtual clock services them, so device-time totals
are bit-identical with and without admission.

Two policies:

* ``none`` — every operation dispatches at its client's current time
  (the historical behaviour; ``make_admission(None)`` returns ``None``);
* ``priority`` — two service classes.  ``interactive`` clients bypass
  admission entirely; each ``analytics`` client runs through a token
  bucket on outstanding device time (``burst_ms`` device-milliseconds
  refilled at ``rate`` device-ms per virtual-ms; an operation's device
  time is debited after it runs, and the client's next operation is
  delayed until the bucket is non-negative again), so their bulk work
  is paced out across virtual time and the gaps it leaves are
  back-filled by interactive operations — the interactive latency
  percentiles drop at identical device time.

Delay only helps because the
:class:`~repro.iosched.scheduler.VirtualClock` is gap-aware: a request
dispatched at an early time can start in an idle interval *before*
work that was queued at a later time.  Without back-filling, delaying a
bulk client would only push every queue end further out.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

__all__ = [
    "AdmissionPolicy",
    "PriorityAdmission",
    "ADMISSIONS",
    "ADMISSION_CLASSES",
    "make_admission",
]

ADMISSION_CLASSES = ("interactive", "analytics")
"""Service classes understood by :class:`PriorityAdmission` — and the
classes :func:`repro.workload.traffic.make_traffic` generates."""


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides when a client operation may dispatch."""

    name: str

    def admit(self, client: str, at: float, clock) -> float:
        """Earliest virtual time the operation may dispatch (>= ``at``)."""
        ...

    def observe(
        self, client: str, dispatched_at: float, device_ms: float, completion: float
    ) -> None:
        """Feedback after the operation ran: the device time it consumed
        (summed over all disks, prefetch included) and its completion."""
        ...

    def reset(self) -> None:
        """Forget all per-client state (a new measurement run)."""
        ...


class _Bucket:
    """One client's token state: ``tokens`` device-ms of budget as of
    virtual time ``as_of``."""

    __slots__ = ("tokens", "as_of")

    def __init__(self, tokens: float):
        self.tokens = tokens
        self.as_of = 0.0


class PriorityAdmission:
    """Two service classes: interactive bypasses, analytics is paced.

    Parameters
    ----------
    classes:
        Mapping of client name to service class (``interactive`` /
        ``analytics``); unlisted clients are ``interactive`` —
        admission is opt-in per bulk client.
    rate:
        Refill rate of an analytics client's bucket in
        device-milliseconds per virtual millisecond.  The default is
        deliberately below one arm's worth (1.0) so bulk work spreads
        out and interactive operations back-fill the gaps.
    burst_ms:
        Bucket capacity: device time an analytics client may consume
        immediately before pacing kicks in.
    classifier:
        Optional callable mapping a client name to its service class,
        consulted for clients absent from ``classes``.  This is how
        generated traffic (10^4-10^5 session names) classifies without
        enumerating every name up front — e.g.
        ``PriorityAdmission(classifier=class_of_session)`` with the
        traffic generator's ``int-``/``ana-`` name prefixes.  A
        classifier returning an unknown class is a configuration error
        at admit time.

    The bucket is *post-debited*: an operation's device time is known
    only after it ran, so ``observe`` debits it and ``admit`` delays the
    **next** operation until the bucket refills to zero.  Deterministic
    and independent of processing order within a client (operations of
    one client are serial on its virtual timeline).
    """

    name = "priority"

    def __init__(
        self,
        classes: dict[str, str] | None = None,
        rate: float = 0.25,
        burst_ms: float = 60.0,
        classifier=None,
    ):
        if rate <= 0:
            raise ConfigurationError(f"token rate must be > 0, got {rate}")
        if burst_ms < 0:
            raise ConfigurationError(f"burst must be >= 0, got {burst_ms}")
        self.rate = rate
        self.burst_ms = burst_ms
        self._buckets: dict[str, _Bucket] = {}
        self.classes = dict(classes or {})
        for client, cls in self.classes.items():
            if cls not in ADMISSION_CLASSES:
                raise ConfigurationError(
                    f"unknown admission class '{cls}' for client "
                    f"'{client}'; valid: {ADMISSION_CLASSES}"
                )
        if classifier is not None and not callable(classifier):
            raise ConfigurationError(
                f"classifier must be callable, got {classifier!r}"
            )
        self.classifier = classifier

    def class_of(self, client: str) -> str:
        """The service class of a client."""
        cls = self.classes.get(client)
        if cls is not None:
            return cls
        if self.classifier is not None:
            cls = self.classifier(client)
            if cls not in ADMISSION_CLASSES:
                raise ConfigurationError(
                    f"classifier returned unknown admission class {cls!r} "
                    f"for client '{client}'; valid: {ADMISSION_CLASSES}"
                )
            return cls
        return "interactive"

    def _bucket(self, client: str) -> _Bucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = _Bucket(self.burst_ms)
        return bucket

    def admit(self, client: str, at: float, clock) -> float:
        if self.class_of(client) == "interactive":
            return at
        bucket = self._bucket(client)
        if at > bucket.as_of:  # refill
            bucket.tokens = min(
                self.burst_ms, bucket.tokens + (at - bucket.as_of) * self.rate
            )
            bucket.as_of = at
        if bucket.tokens >= 0.0:
            return at
        delayed = at + (-bucket.tokens) / self.rate
        bucket.tokens = 0.0
        bucket.as_of = delayed
        return delayed

    def observe(
        self, client: str, dispatched_at: float, device_ms: float, completion: float
    ) -> None:
        if self.class_of(client) == "analytics":
            self._bucket(client).tokens -= device_ms

    def reset(self) -> None:
        self._buckets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate={self.rate}, burst_ms={self.burst_ms})"


ADMISSIONS = ("none", "priority")
"""Valid admission-policy names for every ``admission=`` knob."""


def make_admission(spec) -> "AdmissionPolicy | None":
    """Resolve an admission-policy name (``None``/``"none"`` disable
    it) or pass a ready policy through."""
    if spec is None or spec == "none":
        return None
    if isinstance(spec, str):
        if spec == "priority":
            return PriorityAdmission()
        raise ConfigurationError(
            f"unknown admission policy '{spec}'; valid: {ADMISSIONS}"
        )
    if isinstance(spec, AdmissionPolicy):
        return spec
    raise ConfigurationError(f"not an admission policy: {spec!r}")
