"""The committed byte manifest of the CLI still holds (see golden.py)."""

import json

from golden import GOLDEN, differing_keys, manifest


def test_manifest_unchanged(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = differing_keys(pinned, manifest(tmp_path))
    assert not changed, (
        f"{len(changed)} of {len(pinned)} manifest keys differ: {changed}; "
        "after a declared byte change run `python tests/golden.py --record`"
    )
