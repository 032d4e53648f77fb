"""The package names the benchmark under perfbench/ depends on still exist.

perfbench/spans.py wraps package functions by name, and perfbench/bench.py
calls `training.checkpoint_save` with positional arguments. The benchmark's
own smoke test runs outside this suite, so a refactor that drops or renames
one of those names would only show when the benchmark runs. These checks
read the perfbench files and change nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from signscribe import training

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


def checkpoint_save_calls():
    """The `training.checkpoint_save(...)` calls in perfbench/bench.py."""
    tree = ast.parse((PERFBENCH / "bench.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "checkpoint_save"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "training"]


def test_checkpoint_save_binds_the_benchmark_call():
    calls = checkpoint_save_calls()
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
