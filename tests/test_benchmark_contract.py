"""The package names the benchmark under perfbench/ depends on still exist.

perfbench/spans.py wraps package functions by name, and perfbench/bench.py
calls into `cli`, `data`, `evaluation`, `metrics`, `training` and
`RunConfig`, and reads module constants such as `evaluation.SWEEP_ALPHAS`.
The benchmark's own smoke test runs outside this suite, so a refactor that
drops, renames or trims one of those names would only show when the
benchmark runs. These checks read the perfbench files and change nothing
there.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from signscribe import cli, data, evaluation, metrics, training
from signscribe.config import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, attr: str) -> bool:
    """Whether `attr` names a function the way the tracer looks it up."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        owner = getattr(module, cls_name, None)
        return owner is not None and callable(vars(owner).get(method))
    return callable(getattr(module, attr, None))


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = [f"{module_name}:{attr}" for _, module_name, attr in targets
               if not resolves(module_name, attr)]
    assert missing == []


# the package names perfbench/bench.py imports, as it refers to them
BENCH_NAMES = {"cli": cli, "data": data, "evaluation": evaluation, "metrics": metrics,
               "training": training, "RunConfig": RunConfig}


def bench_tree() -> ast.Module:
    return ast.parse((PERFBENCH / "bench.py").read_text(encoding="utf-8"))


def module_reads():
    """Each `module.attr` that perfbench/bench.py reads from a package module."""
    return [node for node in ast.walk(bench_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in BENCH_NAMES and inspect.ismodule(BENCH_NAMES[node.value.id])]


def test_every_module_attribute_the_benchmark_reads_exists():
    reads = module_reads()
    assert {"evaluation.SWEEP_ALPHAS", "data.SPLITS"} <= {
        f"{node.value.id}.{node.attr}" for node in reads}
    missing = [f"{node.value.id}.{node.attr} (line {node.lineno})" for node in reads
               if not hasattr(BENCH_NAMES[node.value.id], node.attr)]
    assert missing == []


def package_calls():
    """(callee name, call node) for each call perfbench/bench.py makes into the package."""
    out = []
    for node in ast.walk(bench_tree()):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in BENCH_NAMES:
            out.append((func.id, node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in BENCH_NAMES):
            out.append((f"{func.value.id}.{func.attr}", node))
    return out


def test_every_benchmark_call_binds_the_current_signature():
    calls = package_calls()
    assert {"RunConfig", "cli.main", "evaluation.evaluate_corpus", "metrics.bleu",
            "data.load_corpus"} <= {name for name, _ in calls}
    unbound = []
    for name, call in calls:
        owner, _, attr = name.partition(".")
        target = getattr(BENCH_NAMES[owner], attr) if attr else BENCH_NAMES[owner]
        # bench.py passes no *args or **kwargs, so the call's shape is all in the source
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), name
        assert all(kw.arg is not None for kw in call.keywords), name
        try:
            # placeholders stand in for the values; only their number and names matter
            inspect.signature(target).bind(*[None] * len(call.args),
                                           **{kw.arg: None for kw in call.keywords})
        except TypeError as err:
            unbound.append(f"{name} (line {call.lineno}): {err}")
    assert unbound == []


def test_checkpoint_save_binds_the_benchmark_call():
    calls = [call for name, call in package_calls() if name == "training.checkpoint_save"]
    assert calls, "perfbench/bench.py no longer calls training.checkpoint_save"
    signature = inspect.signature(training.checkpoint_save)
    for call in calls:
        # placeholders stand in for the values; only their number and names matter
        bound = signature.bind(*[None] * len(call.args),
                               **{kw.arg: None for kw in call.keywords})
        # a variable passed positionally under a parameter's name (`optimizer`,
        # `scheduler`) must still land on that parameter
        for arg, parameter in zip(call.args, bound.arguments):
            if isinstance(arg, ast.Name) and arg.id in signature.parameters:
                assert parameter == arg.id


# the first parameter of each function whose span `_observe` in
# perfbench/spans.py counts from the wrapped call's args[0]
OBSERVED_FIRST = {"transformer.run_decoder": "m_hat", "autodiff.backward": "graph"}


def observed_first_arguments() -> set[str]:
    """Span names whose `_observe` branch reads the wrapped call's args[0]."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    observe = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_observe")
    names = set()
    for branch in ast.walk(observe):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)
                and isinstance(branch.test.comparators[0], ast.Constant)):
            continue
        if any(isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
               and node.value.id == "args" and isinstance(node.slice, ast.Constant)
               and node.slice.value == 0
               for stmt in branch.body for node in ast.walk(stmt)):
            names.add(branch.test.comparators[0].value)
    return names


def test_observed_first_arguments_keep_their_place():
    # a reordered signature would feed the observer another argument and
    # silently corrupt transformer.run_decoder.positions or autodiff.tape_nodes
    assert observed_first_arguments() == set(OBSERVED_FIRST)
    targets = {name: (module, attr) for name, module, attr in load_spans().TARGETS}
    for name, parameter in OBSERVED_FIRST.items():
        module_name, attr = targets[name]
        function = getattr(importlib.import_module(module_name), attr)
        assert next(iter(inspect.signature(function).parameters)) == parameter, name
