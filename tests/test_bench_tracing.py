"""The benchmark's traced round (`bench/run.py --trace 1`) wraps rotalg
functions by module and attribute name; every name it lists must exist,
or the traced round cannot be installed."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"rotalg.{module}")
    for name in path.split("."):
        obj = getattr(obj, name, None)
    return callable(obj)


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # stdlib imports only
    assert len(tracing.TARGETS) > 60
    missing = [f"{m}.{p}" for m, p, *_ in tracing.TARGETS if not _resolves(m, p)]
    assert missing == []
