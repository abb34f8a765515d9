#!/usr/bin/env python3
"""Unit cases for validate_metrics_json.py's scale-dump check.

Run directly (ctest registers it as validate_metrics_json_test):

    python3 tools/validate_metrics_json_test.py
"""

import copy
import os
import sys
import unittest

sys.dont_write_bytecode = True  # no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import validate_metrics_json as vmj  # noqa: E402


def stats(hops, messages, rpcs, distance):
    return {
        "hops": hops,
        "messages": messages,
        "bytes_sent": 64 * messages,
        "rpcs": rpcs,
        "distance": distance,
    }


# A two-shard dump shaped like bench_scale --metrics-json writes it.
VALID_SCALE_DUMP = {
    "schema": vmj.SCALE_SCHEMA,
    "config": {"nodes": 2000, "jobs": 2, "seed": 1, "epochs": 3},
    "shards": [
        dict(stats(30, 30, 0, 1.5), shard=0),
        dict(stats(12, 12, 0, 0.5), shard=1),
    ],
    "merged": stats(42, 42, 0, 2.0),
    "op_totals": stats(42, 42, 0, 2.0),
    "report": {
        "inserts": 10,
        "inserts_stored": 9,
        "lookups": 10,
        "lookups_found": 10,
        "events": 62,
        "epoch_seconds": 1.0,
        "state_fingerprint": "a" * 40,
        "schedule_fingerprint": "b" * 40,
    },
    "phases": {
        "gen_s": 0.01,
        "phase_a_s": 0.30,
        "barrier_s": 0.02,
        "phase_b_s": 0.20,
        "crash_s": 0.25,
        "join_s": 0.07,
        "sweep_s": 0.14,
    },
}


class ScalePhaseTilingTest(unittest.TestCase):
    def test_phases_that_tile_the_epoch_pass(self):
        self.assertEqual(vmj.validate_scale(VALID_SCALE_DUMP), [])

    def test_phases_that_do_not_tile_the_epoch_fail(self):
        dump = copy.deepcopy(VALID_SCALE_DUMP)
        dump["phases"]["crash_s"] = 0.0  # 0.75 s of a 1.0 s epoch
        errors = vmj.validate_scale(dump)
        self.assertEqual(len(errors), 1)
        self.assertIn("phases sum to", errors[0])

    def test_negative_phase_fails(self):
        dump = copy.deepcopy(VALID_SCALE_DUMP)
        dump["phases"]["join_s"] = -0.07
        dump["phases"]["sweep_s"] = 0.28  # keeps the sum at 1.0
        errors = vmj.validate_scale(dump)
        self.assertEqual(len(errors), 1)
        self.assertIn("'join_s'", errors[0])

    def test_missing_phases_section_fails(self):
        dump = copy.deepcopy(VALID_SCALE_DUMP)
        del dump["phases"]
        self.assertIn("missing section: 'phases'", vmj.validate_scale(dump))


if __name__ == "__main__":
    unittest.main()
