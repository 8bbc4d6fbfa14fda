#!/usr/bin/env python3
"""Self-test of BENCHMARK.json: the contract's shape and limits, and that
its names, units and directions are exactly the benchmark's catalog.

    python3 perfbench/test_contract.py

Builds the benchmark (as run.py does) to ask it for its catalog.
"""

import json
import re
import subprocess
import unittest
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.raw = BENCHMARK.read_bytes()
        cls.spec = json.loads(cls.raw)

    def test_shape_and_limits(self):
        s = self.spec
        self.assertLessEqual(len(self.raw), 64 * 1024)
        self.assertEqual(
            set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for p in s["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue((run.ROOT / p).is_dir())
        self.assertTrue(1 <= len(s["command"]) <= 32)
        for arg in s["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
            if "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in s["paths"]), arg)
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in s[k]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for n in names:
            self.assertRegex(n, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_names_match_the_catalog(self):
        binary = run.build()
        self.assertIsNotNone(binary, "the benchmark must build")
        out = subprocess.run([str(binary), "--catalog"], capture_output=True, text=True, check=True)
        catalog = json.loads(out.stdout)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], catalog["workloads"])
        for key in ("end_to_end", "per_layer"):
            got = [(m["name"], m["unit"], m["better"]) for m in self.spec[key]]
            want = [(m["name"], m["unit"], m["better"]) for m in catalog[key]]
            self.assertEqual(got, want, key)


if __name__ == "__main__":
    unittest.main()
