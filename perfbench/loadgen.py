"""Open-loop load generation for per-event decides.

Events are due on a fixed schedule (event ``i`` at ``start + i / rate``)
whatever the server does, as independent arrivals would be. Each lane is
one thread with its own connection and owns a fixed set of tenants, so
every tenant's events leave in order. Latency runs from an event's due
time to its reply, which charges a stall to every event queued behind it;
a failed, refused, or timed-out request is a latency-limit miss (``inf``).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from common import LATENCY_LIMIT_MS, percentile

#: A lane stops sending this long after its last event fell due; events
#: still unsent by then count as failed.
GRACE_S = 5.0


@dataclass
class StepResult:
    """One fixed-rate step of the open loop."""

    rate: float
    latencies_s: list[float] = field(default_factory=list)
    lag_s_max: float = 0.0
    backlog_max: int = 0
    backlog_end: int = 0
    failed: int = 0
    unsent: int = 0
    call_cpu_s: float = 0.0
    first_due: float = math.inf
    last_done: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.unsent

    @property
    def achieved_rate(self) -> float:
        """Completed decides per second over the step's span."""
        completed = sum(1 for value in self.latencies_s if math.isfinite(value))
        span = self.last_done - self.first_due
        return completed / span if span > 0 else 0.0

    def ms(self, q: float) -> float:
        return percentile(self.latencies_s + [math.inf] * self.unsent, q) * 1e3

    @property
    def passed(self) -> bool:
        """p99 within the limit, nothing failed, and no backlog left over."""
        return (
            self.failed == 0
            and self.unsent == 0
            and self.ms(99) <= LATENCY_LIMIT_MS
            and self.backlog_end <= 1
        )


def open_loop(
    lanes: list[list[tuple[int, object]]],
    rate: float,
    senders: list[Callable[[int, object], object]],
) -> tuple[StepResult, dict[int, object]]:
    """Run one step; returns its result and the replies keyed by event index.

    ``lanes[k]`` lists ``(index, event)`` for lane ``k``, which sends
    through ``senders[k](index, event)``; event ``index`` falls due ``index / rate``
    seconds after the start. One lane runs on the calling thread; more
    lanes run one thread each. Lanes sleep until each due time, so the
    generator burns no CPU of its own while it waits.
    """
    result = StepResult(rate=rate)
    replies: dict[int, object] = {}
    lock = threading.Lock()
    start = time.perf_counter() + 0.02
    result.first_due = start

    def run_lane(lane: list[tuple[int, object]], send) -> None:
        latencies, lag_max, backlog_max, backlog = [], 0.0, 0, 0
        failed = unsent = 0
        last_done = call_cpu = 0.0
        dues = [start + index / rate for index, _event in lane]
        for position, (index, event) in enumerate(lane):
            due = dues[position]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            if now > dues[-1] + GRACE_S:
                unsent = len(lane) - position
                break
            lag_max = max(lag_max, now - due)
            # Events of this lane already due but not yet sent.
            backlog = bisect.bisect_right(dues, now) - position - 1
            backlog_max = max(backlog_max, backlog)
            cpu = time.thread_time()
            try:
                reply = send(index, event)
            except Exception:  # any failure is a miss, whatever its kind
                failed += 1
                latencies.append(math.inf)
                reply = None
            else:
                done = time.perf_counter()
                latencies.append(done - due)
                last_done = max(last_done, done)
            call_cpu += time.thread_time() - cpu
            replies[index] = reply
        with lock:
            result.latencies_s.extend(latencies)
            result.lag_s_max = max(result.lag_s_max, lag_max)
            result.backlog_max = max(result.backlog_max, backlog_max)
            result.backlog_end = max(result.backlog_end, backlog)
            result.failed += failed
            result.unsent += unsent
            result.call_cpu_s += call_cpu
            result.last_done = max(result.last_done, last_done)

    if len(lanes) == 1:
        run_lane(lanes[0], senders[0])
    else:
        threads = [
            threading.Thread(target=run_lane, args=(lane, send))
            for lane, send in zip(lanes, senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return result, replies


def rate_max(steps: list[StepResult]) -> float:
    """Achieved rate of the highest passing step (0 when none passes)."""
    passing = [step for step in steps if step.passed]
    return max(passing, key=lambda step: step.rate).achieved_rate if passing else 0.0
