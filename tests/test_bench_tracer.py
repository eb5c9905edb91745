"""The benchmark's tracer (``bench/tracer.py``) replaces razor functions looked
up by name, so renaming or no longer calling one of them breaks traced
benchmark runs. This runs it against ``src/`` in a fresh process, where its
patches cannot leak into other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from razor.backends import MockBackend
from razor.evalkit import BiasSpec, generate_biased_corpus
from razor.pipeline import RunConfig, run_razor
dataset, rules = generate_biased_corpus(BiasSpec("zonk", corpus_size=120, seed=7))
backend = MockBackend(rules["generation"], verdict=rules["verdict"], seed=rules["seed"])
tracer.wrap_backend(backend)
result = run_razor(dataset, RunConfig(k=10, max_iterations=2), backend)
traces = [t.to_dict() for t in result.traces]
calls = {}
for span in tracer.spans:
    key = (span.parent.name if span.parent else "") + " > " + span.name
    calls[key] = calls.get(key, 0) + 1
generated = sum(span.value for span in tracer.spans if span.name == "rewriter.generate")
print(json.dumps({"calls": calls, "generated": generated,
                  "layers": layer_metrics(tracer.spans, traces)}))
"""


def test_tracer_installs_and_sees_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    calls, layers = out["calls"], out["layers"]
    iterations = layers["pipeline.iterations"]
    assert iterations == 2
    # who calls what: each name is patched where its caller looks it up
    assert calls["pipeline.iteration > surface.stats"] == iterations
    assert calls["pipeline.iteration > surface.embed"] == iterations
    assert calls["pipeline.iteration > surface.score"] == 2 * iterations  # objective before/after
    assert calls["pipeline.rank > surface.score"] == iterations
    assert calls["pipeline.iteration > pipeline.gather"] == iterations
    # the speculative pass selects once per document; the commit walk selects
    # once per document, and again after each verification it makes
    commit_verifies = calls.get("pipeline.iteration > rewriter.verify", 0)
    assert calls["pipeline.gather > rewriter.select"] == layers["pipeline.selected"]
    assert calls["pipeline.iteration > rewriter.select"] == (
        layers["pipeline.selected"] + commit_verifies
    )
    assert calls["pipeline.gather > rewriter.verify"] + commit_verifies == (
        layers["backends.verify_calls"]
    )
    # every generated candidate is tokenized once, in the gather, and
    # embedded in blocks (no surface_embedding call); selection only scores
    assert layers["pipeline.replaced"] > 0
    assert layers["surface.candidate_embed_calls"] == 0
    assert calls["pipeline.gather > corpus.replace_text"] == out["generated"]
    assert "pipeline.iteration > corpus.replace_text" not in calls
    assert not [key for key in calls if key.startswith("rewriter.select >")]
    assert calls["pipeline.gather > rewriter.generate"] == layers["pipeline.selected"]
    # one request asks for all of a document's candidates
    assert calls["rewriter.generate > backends.generate"] == layers["pipeline.selected"]
    assert calls["rewriter.verify > backends.verify"] == layers["backends.verify_calls"]
    assert layers["surface.embed_docs"] == iterations * 120
