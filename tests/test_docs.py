import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    # the python block under "## Library sketch" follows the public API
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})


def _subcommand_flags() -> dict[str, set[str]]:
    from certdom.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def test_readme_flags_are_accepted_by_their_subcommand():
    # every --flag that a `certdom <subcommand>` line shows, in a code block
    # or in backticks, and every backticked --flag of the "Command line" and
    # "The claim suite" sections, is one that subcommand's parser takes
    flags = _subcommand_flags()
    text = README.read_text(encoding="utf-8")
    shown = []  # (subcommand or None for any, flag)
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            for part in line.split("#", 1)[0].split(" | "):
                words = part.split()
                if words[:1] == ["certdom"] and len(words) > 1:
                    shown += [(words[1], f) for f in re.findall(r"--[\w-]+", part)]
    for heading, sub in (("## Command line", None), ("## The claim suite", "suite")):
        section = text.split(heading, 1)[1].split("\n## ", 1)[0]
        section = re.sub(r"```.*?```", "", section, flags=re.S)
        for span in re.findall(r"`([^`\n]+)`", section):
            words = span.split()
            owner = words[1] if words[:1] == ["certdom"] and len(words) > 1 else sub
            shown += [(owner, f) for f in re.findall(r"--[\w-]+", span)]
    assert {sub for sub, _ in shown} >= set(flags)  # the scan found every synopsis line
    unknown = [(sub, f) for sub, f in shown
               if not (f in flags[sub] if sub else any(f in fs for fs in flags.values()))]
    assert not unknown
