"""The program reads no environment variables: every input is a
command-line option or a config key, so a run is a function of what its
command line names."""

import ast
from pathlib import Path

import nnma

ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[int]:
    """Line numbers of every ``os.environ``/``os.getenv`` use and every
    import of those names from ``os``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENV_READERS for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_the_checker_finds_each_form():
    assert environment_reads("import os\nos.environ.get('X')\n") == [2]
    assert environment_reads("import os\nos.getenv('X')\n") == [2]
    assert environment_reads("from os import environ\n") == [1]
    assert environment_reads("import os\nos.replace('a', 'b')\n") == []


def test_no_source_file_reads_the_environment():
    package = Path(nnma.__file__).resolve().parent
    files = sorted(package.glob("*.py"))
    assert files
    found = {path.name: environment_reads(path.read_text(encoding="utf-8"))
             for path in files}
    assert {name: lines for name, lines in found.items() if lines} == {}
