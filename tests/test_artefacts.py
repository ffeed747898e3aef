"""Every benchmark workload's outputs, byte for byte.

Each workload's command chain (``perfbench.workloads``) runs through
``cli.main`` on its seeded inputs, at a tuning seed and at the held-out one,
and each output's SHA-256 must equal the table's.  The same inputs and seed
give the same bytes, so a change made for speed must leave every digest as
it is.  A deliberate format change regenerates the table: each row is
``artefact_digests(name, seed, an empty directory)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from burstmine import cli
from perfbench.workloads import WORKLOADS

DIGESTS = {
    ('pipeline', 0): {
        'baseline.jsonl':
            'e479d41c3c81c7664b3f050cf6e098fa9eb33ca77fca580ab6a300d8efcf3d6a',
        'bursts.jsonl':
            'f8311f76adfb6382d13fa8bf8b9530a62b99c15d3e8000b0eb941ebc097270ef',
        'cart_afs.json':
            'ca81ed9d837b2bf40e949dc12955e5df5c02f8736f764783412e694c8c42a9b0',
        'filter_report.json':
            'a72e401174b1038bdf5c000eecf08d7daa02f59965ed8dbb76015cdbed0b7f32',
        'fsm.dot':
            '38ff9ef13e874b8d9cb12c124b11aac7fcd1000aebdb2cda80ea2d952423f244',
        'fsm.json':
            '1aede8f6fd5ca89fc5c7af6ab918098da3ee95423ec47442c48a9645052dfcd5',
        'kept.json':
            '8a9a4244a36af853294bf6492b4e50db95271f2cf63a443ef853d3c4d014f3d8',
        'matrix.csv':
            '04c4f1d4699976ac3ef807371edb640dcb792924b2095898637c80ec72e68c52',
        'precision.csv':
            '7db0b4549ead6895548634cc1230111bab32045787fb1bc613a09e0d36a2d94f',
        'precision.json':
            'ca1762b95d0e76836ceab79d6e0dcd2d81e03e4f6a8565901e8001ee4a8eabdf',
        'recall.csv':
            'b63863de3a415349403c91b8ebdc56f7b87814221cfe5b74f4e7d6f4704c8351',
        'recall.json':
            'e50066b3dcbc58f3c3f141ebfcad90737b9f62d281111e88b9cbb3095c7c370c',
        'reconstructions.json':
            'd125e4da5246549f1d6dc941d247b46f5115c06c0856a8f368773eb5a0c7b264',
    },
    ('pipeline', 9001): {
        'baseline.jsonl':
            'df837a3c1a5145f343aa7a64076750bcfdf6010805d6469b8b0b51b3ef5ef220',
        'bursts.jsonl':
            '96642564ca09082db18e6e03b1cc9808d4cb6e750fdee61cd56cf05f18dc5987',
        'cart_afs.json':
            'ca81ed9d837b2bf40e949dc12955e5df5c02f8736f764783412e694c8c42a9b0',
        'filter_report.json':
            'be8242beb289ca502cf0397dc3b7bc55d94683a095505675c9ce6479601484c4',
        'fsm.dot':
            '2a5199c369e85f08ebb2ec0ec54db079d61e1a850afa62c757b0c22369eb1206',
        'fsm.json':
            '45cf46e50e61044ca76297d48b22214dbe01bd96e52264c62ee9e7bc56168220',
        'kept.json':
            '8a9a4244a36af853294bf6492b4e50db95271f2cf63a443ef853d3c4d014f3d8',
        'matrix.csv':
            'ea87df64f3009e9fc0bb0566fa5671dfb0b4b682d28541d3d983835d09486947',
        'precision.csv':
            '9401de3dca52f0c184a46c679229bfc40a7ea129b1909f89828a7c0188bfe7cd',
        'precision.json':
            '1d8169fdaeb99997dd8ba1f85571a45c1ac7bb4b45427065de8686b6306d3ead',
        'recall.csv':
            '990c680fc88912eaa439c80072ec3278eb2be3321b58badc4951bfef2778c784',
        'recall.json':
            '329c24308621e7ae34f601346e57f15184321453d71f1a91fd9fd51c82d7b9f0',
        'reconstructions.json':
            'f7f58061520c08b990973d59b04ecd7afafd196f55b72a7af3197ff6ef873b5e',
    },
    ('sweep', 0): {
        'sweep.csv':
            '7ce6f0948f9f4791974003b637053912d8eaec9054570ec42c3559639699d33f',
    },
    ('sweep', 9001): {
        'sweep.csv':
            '6db21e6742f2d399d6c384577d94d608dff742189481bc2142dde48eaa86f073',
    },
    ('probe-mining', 0): {
        'afs.json':
            '433679c5c54006ab3fc354e95dc6a7f3c9389959cdd207b4b8d9a7d1e1a30707',
        'filter_report.json':
            '83f29a0c3aa616d2c51b81ed6922d5b1c660849fed606c5fc32222b5e4d101cf',
        'kept.json':
            '34e00bea9614305d9ab8cc1b8c7458035934546a0bf55c076476be3e88f5646e',
        'matrix.csv':
            'b8459f0e3d060522711fba6d45c43cb841f5487ce4937c1f7b9710ee9a6622f9',
    },
    ('probe-mining', 9001): {
        'afs.json':
            '3e2500872d5b2e2bd2ffd9f7713535d18bf2047d493c2c8a0c2807809448ebf6',
        'filter_report.json':
            '994704240ef43c6ce6873240412a52b9cbcbc63071c3c8a534b76672ce02e28a',
        'kept.json':
            'e34c0157a501092b61303f96c506bc0628a4f397a91b4bd83037f5476775eb75',
        'matrix.csv':
            '72e90658451e45531af0476686393e4a024b972ff72d58c325384fb17ff3c9e6',
    },
    ('filter-wide', 0): {
        'filter_report.json':
            'f8fb463f9d0969a765f0f000c849eff092805cb8f38d738a18bb96ef39096b54',
        'kept.json':
            'aa82d8a9fe07707a3ed7bf3b937bfb8b345680a9afe714c6396c667116bc0555',
    },
    ('filter-wide', 9001): {
        'filter_report.json':
            '891f4e0b2af6cf7f63b9b9e717c1a1233e7dd02bcfe65bb612f0b398aa9a0f3d',
        'kept.json':
            'b29429a5b5f4eb9f90fc3f0ccb6e0700be1c7d866cb40c8ae46442b9d548c6b5',
    },
}


def artefact_digests(name: str, seed: int, root: Path) -> dict[str, str]:
    """Each output file of ``name``'s chain at ``seed``, run below ``root``,
    by its path in the output directory, with its SHA-256."""
    workload = WORKLOADS[name]
    in_dir, out_dir = root / "in", root / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    files, _ = workload.make_inputs(seed)
    for file_name, text in files.items():
        (in_dir / file_name).write_text(text, encoding="utf-8")
    for make_argv in workload.chain(in_dir, out_dir, seed):
        argv = make_argv()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert (code, err.getvalue()) == (0, ""), argv[0]
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_every_workload_writes_its_pinned_bytes(name, seed, tmp_path):
    assert artefact_digests(name, seed, tmp_path) == DIGESTS[name, seed]


def test_the_table_covers_every_workload_at_both_seeds():
    assert sorted(DIGESTS) == sorted((name, seed) for name in WORKLOADS
                                     for seed in (0, 9001))
