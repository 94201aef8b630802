"""Byte goldens of the certificate search through the console script.

For the 33 ``search-*`` documents of bench/data/pool.json and the three
fixtures stripped of their certificates, the exit code and the sha256
of stdout of ``rrmf search-gamma --max-degree D`` for D = 0 .. 3 and of
``rrmf classify --search-degree 3``, at the default budget.  The digests
live in search_golden.json beside this file; running this file as a
script prints them afresh from the library in use.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from rrmf.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().with_name("search_golden.json")


def documents() -> dict:
    """Name -> document text: the pool's search items, then the fixtures
    without their certificates."""
    with open(ROOT / "bench" / "data" / "pool.json", encoding="utf-8") as fh:
        docs = {item["id"]: item["doc"] for item in json.load(fh)["items"]
                if item["id"].startswith("search-")}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("certificate")
        docs[f"bare-{path.stem}"] = json.dumps(doc)
    return docs


def commands() -> list[tuple[str, ...]]:
    return ([("search-gamma", "--max-degree", str(d)) for d in range(4)]
            + [("classify", "--search-degree", "3")])


def digests(tmp: Path) -> dict:
    out = {}
    for name, text in documents().items():
        path = tmp / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for verb, *flags in commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([verb, str(path), *flags])
            out[" ".join((name, verb, *flags))] = [
                code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    return out


def test_search_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 36 * 5
    actual = digests(tmp_path)
    assert actual.keys() == expected.keys()
    differ = [key for key in expected if actual[key] != expected[key]]
    assert not differ, differ


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    print("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(table[k])}"
                              for k in sorted(table)) + "\n}")
