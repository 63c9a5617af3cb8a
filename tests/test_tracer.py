"""The benchmark's span tracer (bench/spans.py) installs on the package and
uninstalls cleanly: a rename or deletion of a traced name fails here."""

import importlib.util
import inspect
from pathlib import Path

import morreylab
import morreylab.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("homspace", "funcnorm", "operators", "auxfun", "corpus", "verify", "cli")


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every module of the package and every class defined in one."""
    out = []
    for name in MODULES:
        module = getattr(morreylab, name)
        out.append(module)
        out += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if cls.__module__ == module.__name__]
    return out


def test_install_then_uninstall_restores_every_attribute():
    before = {ns: dict(vars(ns)) for ns in namespaces()}
    tracer = load_spans().Tracer()
    try:
        tracer.install(morreylab)  # a failed install still uninstalls what it patched
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for ns, attrs in before.items():
        now = vars(ns)
        assert now.keys() == attrs.keys(), ns
        changed = [key for key, value in attrs.items() if now[key] is not value]
        assert not changed, (ns, changed)
