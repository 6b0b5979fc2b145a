"""docs/observability.md lists every ``serving.*`` metric the code emits."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EMIT = re.compile(r'obs\.(count|gauge)\(\s*"(serving\.[a-z0-9_.]+)"')
ROW = re.compile(r"^\| `(serving\.[a-z0-9_.]+)` \| (counter|gauge) \|", re.M)


def test_every_serving_metric_is_documented_with_its_kind():
    emitted = {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for kind, name in EMIT.findall(path.read_text(encoding="utf-8")):
            emitted[name] = "counter" if kind == "count" else "gauge"
    docs = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    documented = dict(ROW.findall(docs))
    assert emitted, "no serving metrics found under src/"
    assert documented == emitted
