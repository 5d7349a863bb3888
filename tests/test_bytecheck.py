"""Every output ``tools/bytecheck.py`` writes still matches its group's sha256
in the committed ``tools/bytecheck.sha256``. A change that moves bytes on
purpose rewrites that file with ``python tools/bytecheck.py --digest``."""

import importlib.util
from pathlib import Path

import evdemand
from perfbench import gen

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bytecheck.py"
_SPEC = importlib.util.spec_from_file_location("bytecheck", _PATH)
bytecheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bytecheck)


def test_every_bytecheck_group_matches_its_committed_digest():
    want = bytecheck.read_digests()
    got = bytecheck.group_digests(bytecheck._outputs(evdemand, gen))
    moved = bytecheck.moved_groups(want, got)
    assert not moved, ("bytecheck outputs moved; run tools/bytecheck.py on both trees and "
                       "--diff them to see the keys:\n" + "\n".join(moved))


def test_a_digest_names_groups_by_the_first_two_words_of_a_key():
    digests = bytecheck.group_digests({"seed 1 render": "a", "seed 1 error": "b", "cli": "c"})
    assert sorted(digests) == ["cli", "seed 1"]
    assert digests["seed 1"] != bytecheck.group_digests({"seed 1 render": "a"})["seed 1"]
    assert digests["seed 1"] == bytecheck.group_digests({"seed 1 error": "b",
                                                         "seed 1 render": "a"})["seed 1"]
