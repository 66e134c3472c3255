"""Every output of the golden commands equals its pin in golden.json.

A change that alters an output on purpose re-pins with
`PYTHONPATH=src python tests/golden.py --write` and says why.
"""

import pytest

from golden import COMMANDS, digests, differences, load_pins

PINNED = load_pins()


def test_every_command_is_pinned():
    assert sorted(PINNED) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_equal_the_pins(name, tmp_path):
    found = digests(COMMANDS[name], str(tmp_path / "out"))
    assert differences({name: PINNED[name]}, {name: found}) == []


def test_a_changed_output_is_a_difference():
    pinned = {"graph": {"<stdout>": "a", "graph.json": "b"}}
    assert differences(pinned, {"graph": {"<stdout>": "a", "graph.json": "c"}}) \
        == ["graph: graph.json: pinned b, now c"]
    assert differences(pinned, {"graph": {"<stdout>": "a"}}) \
        == ["graph: graph.json: pinned b, now None"]
    assert differences(pinned, {}) == ["graph: not run"]
    assert differences({}, pinned) == ["graph: not pinned"]
