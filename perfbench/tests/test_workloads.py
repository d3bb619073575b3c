import pytest

from workloads import WORKLOADS, PathsCli, op_seed


def test_op_seeds_repeat_for_a_seed_and_differ_across_seeds():
    first = [op_seed(3, "table1_em", i) for i in range(100)]
    assert first == [op_seed(3, "table1_em", i) for i in range(100)]
    assert len(set(first)) == 100
    assert first != [op_seed(4, "table1_em", i) for i in range(100)]
    assert first != [op_seed(3, "paths_cli", i) for i in range(100)]
    assert all(0 <= s < 2**31 for s in first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_master_seeds_come_from_the_run_seed(name, tmp_path):
    a = WORKLOADS[name](5, str(tmp_path / "a"))
    b = WORKLOADS[name](5, str(tmp_path / "b"))
    c = WORKLOADS[name](6, str(tmp_path / "c"))
    assert [a.master_seed(i) for i in range(10)] == [b.master_seed(i) for i in range(10)]
    assert [a.master_seed(i) for i in range(10)] != [c.master_seed(i) for i in range(10)]


def test_same_seed_generates_the_same_paths(tmp_path):
    def bundle(seed, where):
        workload = PathsCli(seed, str(tmp_path / where))
        assert workload.check(1, workload.op(1)) == []
        with open(workload.path("paths.csv"), "rb") as handle:
            return handle.read()

    first = bundle(9, "a")
    assert bundle(9, "b") == first
    assert bundle(10, "c") != first
