"""Tests of the benchmark itself: seeded inputs, output checks, tracer hygiene."""

from __future__ import annotations

import inspect

import pytest

import modval.cli
import tracer
import worker
import workloads


def _snapshot(tmp_path, name, seed):
    directory = tmp_path / f"{name}-{seed}"
    plan = workloads.prepare(name, seed, directory)
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    argvs = [plan.op(i, "out.csv").argv for i in range(2 * plan.cycle)]
    # config paths differ by directory only
    argvs = [[arg.replace(str(directory), "<configs>") for arg in argv] for argv in argvs]
    return files, argvs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(tmp_path, name):
    first = _snapshot(tmp_path / "a", name, 7)
    assert _snapshot(tmp_path / "b", name, 7) == first
    assert _snapshot(tmp_path / "c", name, 8) != first


def test_exact_states_stay_inside_the_branch_domain():
    states, worst = workloads.random_states(3)
    assert len(states) == workloads.EXACT_STATES
    assert 0 < worst <= workloads.EXACT_MARGIN_LIMIT


def _perturb(path, column, row_index, delta):
    lines = open(path, encoding="utf-8").read().splitlines()
    header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].split(",")
    cells = lines[header + 1 + row_index].split(",")
    position = columns.index(column)
    cells[position] = repr(float(cells[position]) + delta)
    lines[header + 1 + row_index] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# (workload, op index, column, row, perturbation): one amplitude of the table
MUTATIONS = [
    ("sweep_fig3", 0, "psi_vv_re", 8, 1e-6),  # exact_inversion row at theta = 0
    ("exact_7x5", 0, "amp_re", 11, 1e-6),
    ("noise_fig4", 0, "amp_re", 0, 0.5),  # kind (a), mean amplitudes
]


@pytest.mark.parametrize("name, i, column, row, delta", MUTATIONS)
def test_check_fails_when_one_amplitude_is_perturbed(tmp_path, name, i, column, row, delta):
    plan = workloads.prepare(name, 5, tmp_path / "configs")
    out = str(tmp_path / "out.csv")
    op = plan.op(i, out)
    assert modval.cli.main(op.argv) == 0
    assert op.check(out) is None
    _perturb(out, column, row, delta)
    assert op.check(out) is not None


def _modval_functions():
    return {(module.__name__, name): value
            for module in tracer.modval_modules()
            for name, value in vars(module).items() if inspect.isfunction(value)}


def test_traced_run_restores_every_modval_function(tmp_path):
    before = _modval_functions()
    plan = workloads.prepare("sweep_fig3", 2, tmp_path / "configs")
    trace = tracer.Tracer()
    with trace.installed():
        assert modval.cli.main is not before[("modval.cli", "main")]
    result = worker.traced_run(plan, 0, str(tmp_path / "out.csv"), trace)
    assert result["failed"] == 0 and result["trace_problems"] == 0
    assert trace.ops == plan.trace_ops
    metrics = tracer.layer_metrics(trace, result)
    assert metrics["protocol.settings_per_op"][0] > 0
    after = _modval_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _modval_functions()
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError), trace.installed():
        raise RuntimeError("op crashed")
    after = _modval_functions()
    assert all(after[key] is before[key] for key in before)
