"""Admission control: bounded queues (backpressure) and per-tenant quotas.

Admission runs *before* a request touches the scheduler, on the service's
event loop, so its decisions are serialized and its counters exact.  Two
reject causes, each a typed :class:`~repro.util.errors.ReproError` with a
stable RPR code:

* ``RPR900`` :class:`~repro.util.errors.AdmissionError` — the service-wide
  bounded queue is full.  This is load shedding: the client should back
  off; *every* tenant sees it under global overload.
* ``RPR901`` :class:`~repro.util.errors.QuotaExceededError` — this tenant
  alone is over its in-flight cap.  Other tenants are unaffected; that is
  the isolation guarantee multi-tenancy needs.

Rejections are counted per tenant and per code and surfaced in the
``repro.serve/1`` status document; the service mirrors each into its
metrics (``serve_rejections_total``) and the event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.util.errors import AdmissionError, QuotaExceededError


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``max_inflight`` bounds requests a tenant may have anywhere in the
    service (queued + running + awaiting delivery); ``max_running``
    bounds how many of its *jobs* may occupy workers at once (enforced by
    the scheduler's eligibility check, not at admission).
    """

    max_inflight: int = 8
    max_running: int = 2


class AdmissionController:
    """Decide admit/reject for one request; account for every rejection."""

    def __init__(self, queue_max: int = 64,
                 default_quota: TenantQuota | None = None,
                 quotas: dict[str, TenantQuota] | None = None):
        self.queue_max = int(queue_max)
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        #: (code, tenant) -> count
        self.rejections: dict[tuple[str, str], int] = {}
        #: bounded recent-rejection ring for the status doc
        self.recent: list[dict[str, Any]] = []

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def admit(self, tenant: str, *, queued_total: int,
              tenant_inflight: int) -> None:
        """Raise the typed rejection, or return silently on admit."""
        if queued_total >= self.queue_max:
            self._reject(
                AdmissionError(
                    f"service queue full ({queued_total}/{self.queue_max}); "
                    "retry with backoff", tenant=tenant),
                tenant)
        quota = self.quota_for(tenant)
        if tenant_inflight >= quota.max_inflight:
            self._reject(
                QuotaExceededError(
                    f"tenant {tenant!r} at its in-flight cap "
                    f"({tenant_inflight}/{quota.max_inflight})", tenant=tenant),
                tenant)

    def _reject(self, exc: AdmissionError, tenant: str) -> None:
        code = exc.code
        self.rejections[(code, tenant)] = self.rejections.get((code, tenant), 0) + 1
        self.recent.append({"code": code, "tenant": tenant, "reason": str(exc)})
        del self.recent[:-50]
        raise exc

    # ------------------------------------------------------------------ export
    def rejected_total(self, code: str | None = None) -> int:
        return sum(n for (c, _t), n in self.rejections.items()
                   if code is None or c == code)

    def as_dict(self) -> dict[str, Any]:
        by_code: dict[str, int] = {}
        for (code, _tenant), n in self.rejections.items():
            by_code[code] = by_code.get(code, 0) + n
        return {
            "queue_max": self.queue_max,
            "default_quota": {
                "max_inflight": self.default_quota.max_inflight,
                "max_running": self.default_quota.max_running,
            },
            "rejected_total": self.rejected_total(),
            "rejected_by_code": by_code,
            "recent_rejections": list(self.recent[-10:]),
        }


__all__ = ["AdmissionController", "TenantQuota"]
