"""README's "Library" section names the public API; every name it
backticks must exist, so the documented API cannot drift from the code."""

import os
import re

import aspsubcount

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_section() -> str:
    text = open(README).read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", section, flags=re.S)


def resolves(dotted: str) -> bool:
    obj = aspsubcount
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_library_names_resolve():
    spans = re.findall(r"`([^`]*)`", library_section())
    assert len(spans) > 10
    for span in spans:
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", span)
        assert match, f"`{span}` is not an identifier"
        assert resolves(match.group(1)), f"`{span}` is not in aspsubcount"
