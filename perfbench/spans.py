"""In-memory spans around the benchmark's calls into dwelltime.

Spans are recorded only from the benchmark's own code: around each public call
it makes, and inside the counting pulses below, which wrap
``spectral_density`` so the quadrature's requests for samples become child
spans of the call that made them. Nothing inside the package is patched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from dwelltime.domain import GaussianPulse, TabulatedSpectrumPulse


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    case: str
    start: float
    end: float = 0.0
    n: int = 0  # work count recorded at the boundary (frequency samples, cells, ...)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name, case=None, n=0):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        if case is None:
            case = parent.case if parent is not None else ""
        sp = Span(len(self.spans), parent.sid if parent is not None else None, name, case,
                  time.perf_counter(), n=n)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def dump(self):
        """Compact rows [sid, parent, name, case, start, end, n] for writing out."""
        return [[s.sid, s.parent, s.name, s.case, s.start, s.end, s.n] for s in self.spans]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """sid -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(children.get(s.sid, ())) for s in spans}


@dataclass(frozen=True)
class CountingGaussian(GaussianPulse):
    """Gaussian pulse that records a span, with its sample count, per density request."""

    tracer: Tracer | None = field(default=None, compare=False, repr=False)

    def spectral_density(self, w):
        with self.tracer.span("domain.spectral_density", n=getattr(w, "size", 1)):
            return super().spectral_density(w)


@dataclass(frozen=True)
class CountingTabulated(TabulatedSpectrumPulse):
    """Tabulated pulse that records a span, with its sample count, per density request."""

    tracer: Tracer | None = field(default=None, compare=False, repr=False)

    def spectral_density(self, w):
        with self.tracer.span("domain.spectral_density", n=getattr(w, "size", 1)):
            return super().spectral_density(w)


def counting(pulse, tracer):
    """The counting twin of a Gaussian or tabulated pulse; other pulses pass through."""
    if isinstance(pulse, GaussianPulse):
        return CountingGaussian(pulse.sigma, pulse.detuning, tracer=tracer)
    if isinstance(pulse, TabulatedSpectrumPulse):
        # amplitudes are already normalized; normalize=False keeps them bit-identical
        return CountingTabulated(pulse.omegas, pulse.amplitudes, normalize=False, tracer=tracer)
    return pulse
