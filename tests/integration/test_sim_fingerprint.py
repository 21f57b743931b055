"""Full sim fingerprints, pinned.

A one-rack lossy :class:`AskService` run and a spine–leaf
:class:`TreeAskService` run must reproduce, byte for byte, the result
values, the number of events processed, the final simulated clock and
every link's ``(name, sent, dropped, duplicated, bytes)`` counters.
Together they pin the star link names, the per-link fault streams (a
standalone rack draws from the fault template itself, tree racks from
``rack:<name>``) and every scheduling decision.  A change that
legitimately moves the schedule must re-record them deliberately.
"""

import random

from repro.core.config import AskConfig
from repro.core.results import values_sha256
from repro.core.service import AskService, TreeAskService
from repro.net.fault import FaultModel

PODS = {
    "p0": {"r0": ["h0", "h1"], "r1": ["h2", "h3"]},
    "p1": {"r2": ["h4", "h5"], "r3": ["h6", "h7"]},
}

FLAT_PIN = {
    "values_sha256": "9b23114a46dedbfa7d70f1092c47e368aec26d1f538974a5ee3e1d77022ef2a9",
    "events_processed": 2496,
    "final_now_ns": 580925,
    "links": [
        ("h0->switch", 242, 12, 4, 34300),
        ("h1->switch", 240, 5, 3, 34016),
        ("h2->switch", 333, 21, 9, 25974),
        ("switch->h0", 217, 13, 7, 16926),
        ("switch->h1", 219, 16, 5, 17082),
        ("switch->h2", 344, 19, 5, 48336),
    ],
}

TREE_PIN = {
    "values_sha256": "89b5f347efad79820a9f9f6fb346b43eee2329c574b89a05a1643bd01d10d97f",
    "events_processed": 5224,
    "final_now_ns": 561310,
    "links": [
        ("core:spine-p0->spine-p1", 198, 8, 0, 27604),
        ("core:spine-p1->spine-p0", 177, 3, 0, 13806),
        ("down:spine-p0->r0", 120, 3, 0, 9360),
        ("down:spine-p0->r1", 114, 2, 0, 8892),
        ("down:spine-p1->r2", 129, 4, 0, 10062),
        ("down:spine-p1->r3", 270, 8, 0, 37444),
        ("h0->switch", 135, 4, 0, 19106),
        ("h1->switch", 0, 0, 0, 0),
        ("h2->switch", 0, 0, 0, 0),
        ("h3->switch", 129, 1, 0, 18254),
        ("h4->switch", 0, 0, 0, 0),
        ("h5->switch", 142, 4, 0, 20100),
        ("h6->switch", 261, 6, 0, 20358),
        ("h7->switch", 0, 0, 0, 0),
        ("switch->h0", 115, 2, 0, 8970),
        ("switch->h1", 0, 0, 0, 0),
        ("switch->h2", 0, 0, 0, 0),
        ("switch->h3", 110, 3, 0, 8580),
        ("switch->h4", 0, 0, 0, 0),
        ("switch->h5", 123, 2, 0, 9594),
        ("switch->h6", 262, 2, 0, 36308),
        ("switch->h7", 0, 0, 0, 0),
        ("up:r0->spine-p0", 133, 3, 0, 18694),
        ("up:r1->spine-p0", 130, 2, 0, 18268),
        ("up:r2->spine-p1", 140, 5, 0, 19688),
        ("up:r3->spine-p1", 255, 4, 0, 19890),
    ],
}


def _streams(rng, senders, tuples, keys):
    return {
        host: [
            (b"k%d" % rng.randrange(keys), rng.randrange(1, 100))
            for _ in range(tuples)
        ]
        for host in senders
    }


def _fingerprint(service, task):
    links = sorted(service.fabric._links(), key=lambda link: link.name)
    return {
        "values_sha256": values_sha256(task.result.values),
        "events_processed": service.sim.events_processed,
        "final_now_ns": service.sim.now,
        "links": [
            (
                link.name,
                link.packets_sent,
                link.packets_dropped,
                link.packets_duplicated,
                link.bytes_sent,
            )
            for link in links
        ],
    }


def test_one_rack_lossy_fingerprint_is_pinned():
    fault = FaultModel(
        loss_rate=0.05,
        duplicate_rate=0.03,
        reorder_rate=0.10,
        max_extra_delay_ns=200_000,
        seed=7,
    )
    config = AskConfig.small(window_size=64, retransmit_timeout_us=50.0)
    service = AskService(config, hosts=3, fault=fault)
    streams = _streams(random.Random(7), ["h0", "h1"], 600, 128)
    task = service.submit(streams, "h2")
    service.run_to_completion()
    assert _fingerprint(service, task) == FLAT_PIN


def test_tree_fingerprint_is_pinned():
    config = AskConfig.small(window_size=64, aggregators_per_aa=64)
    fault = FaultModel(loss_rate=0.02, seed=7)
    service = TreeAskService(config, pods=PODS, placement="both", fault=fault)
    streams = _streams(random.Random(7), ["h0", "h3", "h5"], 400, 512)
    task = service.submit(streams, "h6", region_size=16)
    service.run_to_completion()
    assert _fingerprint(service, task) == TREE_PIN
