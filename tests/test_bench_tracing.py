"""The benchmark's stage tracer still finds every function it traces.

`bench/tracing.py` wraps 38 `loquad` functions at every module attribute
that binds them; `Tracer.install` raises when one of them is missing or
bound nowhere.  The module is executed from its source, so nothing is
written under `bench/`.
"""

import sys
import types
from pathlib import Path

import loquad.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def bindings():
    """Every attribute of the loaded loquad modules and their classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "loquad"
                                  or name.startswith("loquad.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[name, attr, cattr] = cvalue
    return out


def test_tracer_installs_and_uninstalls(tmp_path, capsys):
    tracing = load_tracing()
    assert len(tracing.SPAN_NAMES) == 38
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        path = tmp_path / "k4.emb.json"
        assert loquad.cli.main(["generate", "k4-projective",
                                "--out", str(path)]) == 0
        assert loquad.cli.main(["invariants", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 2
    assert metrics["invariants.invariant_report.calls"] == 1
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
