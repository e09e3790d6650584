"""The correctness gate: any failed check fails the run.

Checks, as the workloads apply them:

* decisions served over the wire equal, field for field (``to_dict()``),
  those of an in-process mirror service opened with the same seeds and
  fed the same per-tenant events and cycle boundaries;
* table mode reconciles every cycle: ``table_hits + fallbacks == alerts``;
* solve mode reconciles every cycle: ``sse_solves + cache_hits == alerts``;
* on a sample covering every alert type, served game values lie within
  ``EXACT_TOL`` of an exact solve-path mirror (no table, no cache) fed the
  same events;
* every submit answers one decision per event.
"""

from __future__ import annotations

from common import EXACT_TOL


class Gate:
    """Collects check failures; ``ok`` is False once any check failed.

    ``tamper``, when given, rewrites every mirrored decision list before it
    is compared; the self-test uses it to prove the gate can fail.
    """

    def __init__(self, tamper=None) -> None:
        self.failures: list[str] = []
        self.checks = 0
        self._tamper = tamper

    @property
    def ok(self) -> bool:
        return not self.failures and self.checks > 0

    def check(self, condition: bool, message: str) -> bool:
        self.checks += 1
        if not condition:
            self.failures.append(message)
        return condition

    def cycle(self, report, mode: str) -> None:
        """The per-cycle counter identity of ``mode``."""
        if mode == "table":
            self.check(
                report.table_hits + report.fallbacks == report.alerts,
                f"{report.tenant} cycle {report.cycle}: table_hits "
                f"{report.table_hits} + fallbacks {report.fallbacks} != "
                f"alerts {report.alerts}",
            )
        else:
            self.check(
                report.sse_solves + report.cache_hits == report.alerts,
                f"{report.tenant} cycle {report.cycle}: sse_solves "
                f"{report.sse_solves} + cache_hits {report.cache_hits} != "
                f"alerts {report.alerts}",
            )

    def answered(self, events, decisions, label: str) -> None:
        self.check(
            len(decisions) == len(events),
            f"{label}: {len(decisions)} decisions for {len(events)} events",
        )

    def identical(self, served, mirrored, label: str) -> None:
        """Served decisions equal the mirror's, field for field."""
        if self._tamper is not None:
            mirrored = self._tamper(list(mirrored))
        if not self.check(
            len(served) == len(mirrored),
            f"{label}: {len(served)} served vs {len(mirrored)} mirrored decisions",
        ):
            return
        for position, (got, want) in enumerate(zip(served, mirrored)):
            if got is None or got.to_dict() != want.to_dict():
                self.check(False, f"{label}: decision {position} differs from "
                                  f"the mirror: {got} != {want}")
                return
        self.check(True, label)

    def exact(self, served, exact, type_ids, label: str) -> None:
        """Served game values within ``EXACT_TOL`` of exact re-solves."""
        if self._tamper is not None:
            exact = self._tamper(list(exact))
        covered = {decision.type_id for decision in served}
        self.check(
            covered == set(type_ids),
            f"{label}: sample covers types {sorted(covered)}, not all of "
            f"{sorted(type_ids)}",
        )
        self.check(len(served) == len(exact), f"{label}: sample sizes differ")
        worst = max(
            (abs(a.game_value - b.game_value) for a, b in zip(served, exact)),
            default=0.0,
        )
        self.check(
            worst <= EXACT_TOL,
            f"{label}: game value off the exact solve by {worst:.3e} "
            f"(> {EXACT_TOL:.0e})",
        )
