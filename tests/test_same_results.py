"""tools/same_results.py at smoke size: two identical copies of the
package give the same results on every workload, and a copy whose
categorical transition table is transposed does not; ``main`` runs a
``git archive`` of a revision and exits nonzero on any difference. The
tool is loaded from its file."""

import importlib.util
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_results", os.path.join(ROOT, "tools", "same_results.py"))
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)

TRANSPOSE = ("        return np.asarray(self.matrix, dtype=np.float64)\n",
             "        return np.asarray(self.matrix, dtype=np.float64).T\n")


def _copy(tmp_path, name: str) -> str:
    return same_results.copy_working_tree(str(tmp_path / name))


def test_identical_copies_give_the_same_results(tmp_path):
    a, b = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    rows = same_results.compare_trees(a, b, str(tmp_path / "work"), ["binary-mult",
                                      "graph-ring", "labels-long"], seeds=(3,), smoke=True)
    table = same_results.format_table(rows)
    assert all(r["same"] for r in rows), table
    # every operation ran, graph-fit at both worker counts, and counted
    assert [(r["workload"], r["op"], r["workers"]) for r in rows] == [
        ("binary-mult", "simulate", 1), ("binary-mult", "fit", 1),
        ("graph-ring", "graph-fit", 1), ("graph-ring", "graph-fit", 2),
        ("labels-long", "simulate", 1), ("labels-long", "fit", 1),
        ("labels-long", "compare", 1)]
    assert all(r["files"][1] >= 2 and (r["counts"] or r["workers"] == 2) for r in rows)
    assert table.endswith("7 of 7 operations the same")


def test_a_transposed_categorical_table_is_a_difference(tmp_path):
    a, b = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    path = os.path.join(b, "cascades", "transitions.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(TRANSPOSE[0]) == 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(*TRANSPOSE))
    rows = same_results.compare_trees(a, b, str(tmp_path / "work"), ["graph-ring"],
                                      seeds=(3,), smoke=True)
    assert not any(r["failed"] for r in rows)
    assert not any(r["same"] for r in rows), same_results.format_table(rows)
    assert "0 of 2 operations the same" in same_results.format_table(rows)


def _has_head() -> bool:
    try:
        subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "HEAD"],
                       check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a commit")
def test_main_materialises_the_revision_and_prints_one_verdict(monkeypatch, capsys):
    listed = subprocess.run(["git", "-C", ROOT, "ls-tree", "-r", "--name-only", "HEAD", "src"],
                            check=True, capture_output=True, text=True).stdout.split()
    engine = subprocess.run(["git", "-C", ROOT, "show", "HEAD:src/cascades/engine.py"],
                            check=True, capture_output=True).stdout
    seen = {}

    def head_as_tree(dest):
        # the working tree's side is HEAD too, so the verdict does not
        # depend on uncommitted edits
        src = same_results.materialise("HEAD", dest)
        seen["files"] = sorted(os.path.relpath(os.path.join(d, f), os.path.dirname(src))
                               for d, _, files in os.walk(src) for f in files)
        with open(os.path.join(src, "cascades", "engine.py"), "rb") as fh:
            seen["engine"] = fh.read()
        return src

    def one_workload(ref, new, work, names, seeds, smoke):
        seen["args"] = (names, seeds, smoke)
        return compare_trees(ref, new, work, ["graph-ring"], (3,), smoke)

    compare_trees = same_results.compare_trees
    monkeypatch.setattr(same_results, "copy_working_tree", head_as_tree)
    monkeypatch.setattr(same_results, "compare_trees", one_workload)
    assert same_results.main(["HEAD", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert seen["files"] == sorted(listed) and seen["engine"] == engine
    names = sorted(same_results._perfbench("workloads").WORKLOADS)
    assert seen["args"] == (names, same_results.SEEDS, True)
    assert out.startswith("# HEAD against the working tree, seeds [1, 3], smoke size")
    assert out.rstrip().endswith("2 of 2 operations the same")


@pytest.mark.parametrize("failed, same, code", [([], True, 0), ([], False, 1),
                                                 (["exit code 3"], False, 2)])
def test_main_exits_nonzero_on_a_difference_or_a_failure(monkeypatch, capsys,
                                                         failed, same, code):
    row = {"workload": "graph-ring", "seed": 1, "op": "graph-fit", "workers": 1,
           "failed": failed, "files": (0, 0) if failed else (3, 3), "counts": None,
           "n_counts": 0, "same": same}
    monkeypatch.setattr(same_results, "materialise", lambda rev, dest: dest)
    monkeypatch.setattr(same_results, "copy_working_tree", lambda dest: dest)
    monkeypatch.setattr(same_results, "compare_trees", lambda *args: [row])
    assert same_results.main(["REV"]) == code
    assert capsys.readouterr().out.rstrip().endswith(f"{int(same)} of 1 operations the same")
