"""Same results at smoke size: every benchmark workload at seed 3 runs its
operations through ``cascades.cli.main`` and must return the values
pinned below, floats to the benchmark's ``LL_RTOL`` and integers,
strings and sha256 digests exactly. perfbench/workloads.py is loaded
from its file and only read."""

import importlib.util
import os

import pytest

from cascades.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SEED = 3

PINS = {
    "labels-long": {
        "simulate": {
            "events_sha256": "68929ba78fd389ba849ecce79ad3a38749be2ef11dbdeea5f5b1cea862a40422",
            "forest_sha256": "6cbd26cd5bc577bfcf6bd9d6dbedb4f1dbb9f0a3489bf686226930bbfe87aa04"},
        "fit": {"train_ll": -411.3912298018097, "test_ll": -93.07172754404203,
                "iterations": 8},
        "compare": {"exp_train_ll": -411.3912298018097, "exp_test_ll": -93.07172754404203,
                    "gamma_train_ll": -410.79275201073034,
                    "gamma_test_ll": -93.02579110283742}},
    "binary-mult": {
        "simulate": {
            "events_sha256": "5d5f4d9765f6270170f917b8b7aea8ff3a35c47a94f8a2a5ef78bf1d1d91a74a",
            "forest_sha256": "fb44487c3e5836d67b13ecaa790c3fbfaaddbaf865dc26e251ebe4149a747d68"},
        "fit": {"train_ll": -984.5186961074958, "test_ll": -226.56513609010963,
                "iterations": 8}},
    "graph-ring": {
        "graph-fit": {"strength": 10.0, "test_ll": -79.43883671058333}},
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_returns_its_pinned_values(name, tmp_path):
    workload = workloads.WORKLOADS[name](smoke=True)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workload.generate(SEED, str(inputs))
    values = {}
    for op in workload.ops:
        out = str(tmp_path / op)
        assert main(workload.argv(op, SEED, str(inputs), out, workers=1)) == 0
        values[op] = workload.check(op, SEED, str(inputs), out)
    workload.cross_check(values)
    assert sorted(values) == sorted(PINS[name])
    for op, want in PINS[name].items():
        assert sorted(values[op]) == sorted(want)
        workloads._check_reference(values[op], want, f"{name} {op}")
