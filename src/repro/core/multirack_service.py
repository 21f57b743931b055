"""`MultiRackService` — the hierarchical deployment of §7.

"ASK could be deployed on TOR switches, providing a best-effort service
only to hosts within one rack.  And cross-rack traffic would bypass the
receiver TOR switch and proceed to the receiver host for eventual
aggregation."

The services live in :mod:`repro.core.service`, where one rack, a flat
mesh of racks and a spine–leaf tree are the same deployment shape; this
module remains the historical import location::

    from repro.core.multirack_service import MultiRackService

    service = MultiRackService(cfg, racks={"r0": ["a", "b"], "r1": ["c"]})
    result = service.aggregate({"a": [...], "c": [...]}, receiver="b")
"""

from __future__ import annotations

from repro.core.service import PLACEMENTS, MultiRackService, TreeAskService

__all__ = ["MultiRackService", "TreeAskService", "PLACEMENTS"]
