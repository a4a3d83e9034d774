"""The command line's outputs, byte for byte, held by sha256 digests.

The digests cover, at fixed seeds and sizes:

- every preset study at ``--seed 7 --reps 3`` (thm3 at
  ``--n-grid 300,600,1200 --reps 2``), at ``--threads`` 1 and 2:
  records.csv, summary.csv, study.csv, stdout, stderr and the exit code
- ``estimate --method both --taper-k 8 --sparse-pca-s 3`` on a seeded CSV,
  and the tied-column error on a copy with ties
- ``rate-fit`` on the thm1 records
- ``kernel-check --grid-size 51``

Everything runs in-process through ``cli.main``.  The digests hold for
the numpy version and BLAS recorded next to them in output_digests.json.
A change that alters output on purpose rewrites them with

    PYTHONPATH=src python3 tests/test_output_digests.py

and says in CHANGES.md why the bytes changed.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from rankspec.cli import main

DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")

PRESETS = {
    "thm1": ["simulate", "--reps", "3"],
    "thm2": ["simulate", "--reps", "3"],
    "thm3": ["taper-study", "--n-grid", "300,600,1200", "--reps", "2"],
    "thm4": ["pca-study", "--reps", "3"],
    "thm5": ["pca-study", "--reps", "3"],
}


def environment():
    """numpy version and the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": {k: blas[k] for k in ("name", "version")}}


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _run(workdir, argv):
    """Exit code, stdout and stderr of one in-process command, with the
    working directory written as <dir> so digests do not depend on it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, *(s.getvalue().replace(workdir, "<dir>") for s in (out, err))


def _digest_case(digests, name, workdir, argv, outdir):
    """Digest the run's streams, its exit code, the names of the files it
    left in outdir, and each of those files."""
    code, out, err = _run(workdir, argv)
    digests[name + "/exit"] = str(code)
    digests[name + "/stdout"] = _sha(out)
    digests[name + "/stderr"] = _sha(err)
    files = sorted(os.listdir(outdir))
    digests[name + "/files"] = _sha("\n".join(files))
    for fname in files:
        digests["%s/%s" % (name, fname)] = _sha(pathlib.Path(outdir, fname).read_bytes())


def _write_sample(path, values):
    header = ",".join("c%d" % j for j in range(values.shape[1]))
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values)
    pathlib.Path(path).write_text(header + "\n" + rows)


def collect(workdir):
    """{output name: digest} for every command above, run under workdir."""
    digests = {}
    for preset, argv in PRESETS.items():
        for threads in (1, 2):
            name = "%s/threads%d" % (preset, threads)
            outdir = os.path.join(workdir, name)
            os.makedirs(outdir)
            _digest_case(
                digests, name, workdir,
                argv[:1] + ["--preset", preset, "--seed", "7", "--out-dir", outdir,
                            "--threads", str(threads)] + argv[1:],
                outdir,
            )

    outdir = os.path.join(workdir, "rate-fit")
    os.makedirs(outdir)
    _digest_case(
        digests, "rate-fit", workdir,
        ["rate-fit", "--input", os.path.join(workdir, "thm1/threads1/records.csv"),
         "--functional", "spec_err", "--estimator", "tau"],
        outdir,
    )

    x = np.random.default_rng(20261020).normal(size=(3000, 12))
    x[:, 5] = np.exp(x[:, 5])
    tied = x.copy()
    tied[:, 2] = np.round(tied[:, 2], 1)
    for name, sample in (("estimate", x), ("estimate-tied", tied)):
        indir, outdir = os.path.join(workdir, name + "-in"), os.path.join(workdir, name)
        os.makedirs(indir)
        os.makedirs(outdir)
        _write_sample(os.path.join(indir, "x.csv"), sample)
        _digest_case(
            digests, name, workdir,
            ["estimate", "--input", os.path.join(indir, "x.csv"), "--method", "both",
             "--output", os.path.join(outdir, "e.csv"),
             "--taper-k", "8", "--sparse-pca-s", "3"],
            outdir,
        )

    outdir = os.path.join(workdir, "kernel-check")
    os.makedirs(outdir)
    _digest_case(
        digests, "kernel-check", workdir,
        ["kernel-check", "--grid-size", "51", "--out", os.path.join(outdir, "sweep.csv")],
        outdir,
    )
    return digests


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return collect(str(tmp_path_factory.mktemp("digests")))


def test_environment_matches_recorded(recorded):
    here = environment()
    differences = [
        "%s: recorded %r, here %r" % (key, recorded[key], here[key])
        for key in here
        if recorded[key] != here[key]
    ]
    assert not differences, (
        "the digests were recorded under a different build; %s"
        % "; ".join(differences)
    )


def test_outputs_match_recorded_digests(recorded, observed):
    want = recorded["digests"]
    differ = sorted(k for k in want.keys() & observed.keys() if want[k] != observed[k])
    missing = sorted(want.keys() - observed.keys())
    extra = sorted(observed.keys() - want.keys())
    assert not (differ or missing or extra), (
        "outputs differ from the recorded digests: %s; not produced: %s; "
        "not recorded: %s" % (differ or "none", missing or "none", extra or "none")
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        table = collect(workdir)
    DIGESTS.write_text(
        json.dumps(dict(environment(), digests=table), indent=1, sort_keys=True) + "\n"
    )
    print("wrote %d digests to %s" % (len(table), DIGESTS), file=sys.stderr)
