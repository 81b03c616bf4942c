"""Clean under NOC405: the sanctioned simprof probe pattern.

The cycle domain never touches a clock — it only calls probe methods on
an injected profiler (which owns the clock, over in repro.telemetry).
There is one loop body: `lap` is the profiler's probe on a sampled step
and None otherwise.
"""


class ProfiledLoop:
    def __init__(self, simprof=None, telemetry=None):
        self._simprof = simprof
        self._tel = telemetry
        self._tel_sampled = None

    def step(self, cycle: int) -> None:
        prof = self._simprof
        lap = prof.lap if prof is not None and prof.begin_step(cycle) else None
        self._advance(cycle)
        if lap is not None:
            lap("phase.advance")
        if prof is not None and lap is not None:
            prof.end_step()

    def _advance(self, cycle: int) -> None:
        tel = self._tel
        if tel is not None:
            self._tel_sampled = tel if cycle % 10 == 0 else None
        sampled = self._tel_sampled
        if sampled is not None:
            sampled.record("step", cycle)
