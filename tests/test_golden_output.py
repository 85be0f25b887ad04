"""Every command's stdout, pinned byte for byte by its sha256.

A change that means to keep the output must keep these digests.  The table
covers the human summary of all six commands and the json and csv documents
of schedule, simulate, compare-costs and ingest, which need no numpy.  The
full-precision fit-cfr and validate documents are left out: their low bits
follow the BLAS build of numpy's matrix products, so the same code can print
other bytes on another machine.  Their human summaries show three
significant figures and are pinned.  validate --cfr skips the fit, so no
BLAS bits reach its output, and all three of its documents are pinned.

The bundled data directory is an absolute path and appears in the ingest and
validate summaries; it is replaced by {data_dir} before hashing.
`python tests/test_golden_output.py [command ...]` prints the table's lines
for the commands given, or for every pinned command.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from lockcycle.cli import main
from lockcycle.series import default_data_dir

GOLDEN = {
    "schedule": "71ce9474f52ac04deeb597cad96a25c0af2b20f76af41f1bda58e536e9c14049",
    "schedule --format json": "afc0861bf2a54b490c77a8ac5be4257ae847602d08258b8dc7d41e52b49c951e",
    "schedule --format csv": "e74b32866d8dff5c9645c9b9748d9110d066590687b1534ef2513cdd67a29b1a",
    "simulate": "c21ea7392bd03204c2a9e31a5247429202a87856993421502774f8562f7e1e1d",
    "simulate --format json": "cc488a68782255f0aeeb805bba3ee68961b0c618a05d7ed407b1c479b5e3eb8f",
    "simulate --format csv": "ca6d5e889206d796d4250b3ff05e225a87107d311c2917f07c59568cc9880f3a",
    "simulate --order co": "8220a2e15059bf21ef5eebfbcb9d372a927593c3bf644829ce7f6b1cb1a13dd7",
    "simulate --order oc-then-co": "cf8351965283ae6de3bc1f4551377115d00198c25927f20eb75b34d69e05e04e",
    "simulate --order oc-then-co --step 0.37":
        "9a41b3fb109be55a6812adba9fd5f2683e6b5def48c8eb031916a50d7e9267f3",
    "compare-costs": "259006274f362458f1c7747856c34aa215164791214c2fcc41ea0f4dbd8f1fcf",
    "compare-costs --format json": "984518add60a0ff6472854de10c8b8706cb8e6c670b40021c6e0421ff9e93422",
    "compare-costs --format csv": "d3d2ba57ea7961fe102e6da7ebed693240fa24e66efb6a6cd2f3ed437d06881d",
    "fit-cfr": "4b235bdbaaa22819e3ac6a0b1ad0815f100adcaa5ea1ceecfc59e5904aa9c240",
    "ingest": "1dee5395cebf21b9edc1d49c2f26a01051a727277081dc3ada2001525dbbd24d",
    "ingest --format json": "5faca6cbbc8537934593b5d42146234cd4ac2e3eede1dbb636adb76aa68b06cc",
    "ingest --format csv": "fc7e7170c0a9b7e051af72854d87c2d301c3f4705b33aac62b4e13536f5603a6",
    "validate": "2df9442fc026a44d54ee651f8555f9e701aec9643781bfb729b9dae8c279d7aa",
    "validate --cfr 0.0085": "1ede6a2bc898a82dc06a83ac38688cbfb5809b4d59c9c637669ebda4b8cd425f",
    "validate --cfr 0.0085 --format json":
        "986ba978f83168d7924e71cf197200a3ebc994378ebee753dcaaa89ac8365bc7",
    "validate --cfr 0.0085 --format csv":
        "bba4020378069f20f0330e2c9561d35445313eb6cd0d53dc3800b356a3fe02c8",
}


def stdout_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    text = out.getvalue().replace(default_data_dir(), "{data_dir}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_pinned_digest(command):
    assert stdout_digest(command) == GOLDEN[command]


if __name__ == "__main__":
    for command in sys.argv[1:] or GOLDEN:
        print('    "%s": "%s",' % (command, stdout_digest(command)))
