"""Golden output digests for ``generate`` and ``simulate``.

``golden/digests.json`` holds the sha256 of two ``generate`` trace CSVs and of
36 ``simulate`` metrics reports (vr/simple/trace models x N in {1, 4, 8} x
loss in {0, 0.05} x queue limit in {0, 50}, 0.5 s each), as written by the
per-fragment event-heap simulator that preceded the burst-level link
recursion. A report is hashed with only the keys that engine wrote (kept per
model under ``report_shapes``), so keys added later leave the digests valid
while every byte of the existing ones stays pinned.

Regenerate only for an intentional output change recorded in CHANGES.md:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from vrburst.cli import main

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

GENERATE = {
    "vr_trace.csv": ["--model", "vr", "--rate-mbps", "50", "--fps", "60",
                     "--duration-s", "5", "--seed", "11"],
    "simple_trace.csv": ["--model", "simple", "--size-dist", "normal:30000:8000",
                         "--period-dist", "uniform:0.005:0.02", "--duration-s", "2",
                         "--seed", "12"],
}

MODELS = {
    "vr": ["--model", "vr", "--rate-mbps", "50", "--fps", "60"],
    "simple": ["--model", "simple", "--size-dist", "uniform:2000:120000",
               "--period-dist", "logistic:0.01:0.002"],
    "trace": ["--model", "trace", "--trace", "vr_trace.csv"],
}

SIMULATE = {
    f"{model}-n{n}-loss{loss}-q{queue}": MODELS[model] + [
        "--stations", str(n), "--loss", str(loss), "--queue-limit", str(queue),
        "--link-mbps", "300", "--prop-delay-us", "20", "--overhead-bytes", "22",
        "--duration-s", "0.5", "--seed", "7",
    ]
    for model in MODELS
    for n in (1, 4, 8)
    for loss in (0, 0.05)
    for queue in (0, 50)
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shape(obj):
    """Key tree of a report: dicts map key -> shape, lists of dicts keep one element's."""
    if isinstance(obj, dict):
        return {key: _shape(value) for key, value in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], dict):
        return [_shape(obj[0])]
    return None


def _project(obj, shape):
    if isinstance(shape, dict):
        return {key: _project(obj[key], sub) for key, sub in shape.items()}
    if isinstance(shape, list):
        return [_project(item, shape[0]) for item in obj]
    return obj


def _run(*argv) -> None:
    assert main(list(argv)) == 0, argv


def _generate(name: str) -> str:
    _run("generate", *GENERATE[name], "--out", name)
    return Path(name).read_text()


def _simulate(case: str) -> dict:
    if case.startswith("trace-"):
        _run("generate", *GENERATE["vr_trace.csv"], "--out", "vr_trace.csv")
    _run("simulate", *SIMULATE[case], "--out", "report.json")
    return json.loads(Path("report.json").read_text())


def _report_digest(report: dict, shape) -> str:
    return _sha256(json.dumps(_project(report, shape), indent=2) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(GENERATE))
def test_generate_digest(name, golden, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _sha256(_generate(name)) == golden["generate"][name]


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_simulate_digest(case, golden, tmp_path, monkeypatch, capsys):
    # relative paths keep the echoed trace_path independent of the temp dir
    monkeypatch.chdir(tmp_path)
    report = _simulate(case)
    shape = golden["report_shapes"][case.split("-")[0]]
    assert _report_digest(report, shape) == golden["simulate"][case]


def _capture(workdir: Path) -> dict:
    os.chdir(workdir)
    out = {"generate": {}, "simulate": {}, "report_shapes": {}}
    for name in sorted(GENERATE):
        out["generate"][name] = _sha256(_generate(name))
    for case in sorted(SIMULATE):
        report = _simulate(case)
        text = Path("report.json").read_text()
        shape = out["report_shapes"].setdefault(case.split("-")[0], _shape(report))
        assert _report_digest(report, shape) == _sha256(text)
        out["simulate"][case] = _sha256(text)
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _capture(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests['generate'])} + {len(digests['simulate'])} digests to {GOLDEN}",
          file=sys.stderr)
