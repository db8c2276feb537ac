"""README's Quick-start block runs as written, and every expression in it
with a commented value gives that value, so the documented API cannot drift
from the code."""

import ast
import re
from pathlib import Path

import pytest

from quadineq import __version__
from quadineq.certifier import certify
from quadineq.ioutil import dumps

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_lines():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_quick_start_runs_and_gives_its_commented_values():
    namespace = {}
    checked = []
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        code = code.strip()
        expected = re.match(r"\s*(True|False|-?[0-9][0-9.e+-]*)(?=[\s:]|$)", comment)
        if not code:
            continue
        if expected is None:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        literal = ast.literal_eval(expected.group(1))
        if isinstance(literal, bool):
            assert value is literal, code
        else:
            assert value == pytest.approx(literal, abs=1e-12), code
        checked.append(code)
    assert checked[:3] == ['residual(m, "edge")', 'residual(m, "expanded")',
                           'residual(m, "lemma")']
    assert checked[-1] == "audit(q).passed()"


def test_readme_names_the_certificate_format_of_the_package():
    # a version bump that moves the format cannot leave README naming the old one
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"It is\s+format (\d+\.\d+\.\d+)", text) == [__version__]


@pytest.mark.parametrize("margin", [0.2, 0.15, 0.12])
def test_readme_size_table_gives_the_document_bytes_of_the_current_format(margin):
    # the packed-tree table's column for this format holds the bytes of the
    # document `certify` writes, with its trailing newline
    text = README.read_text(encoding="utf-8")
    header = next(line for line in text.splitlines()
                  if line.startswith("| margin |") and f"format {__version__} |" in line)
    rows = text.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    column = [cell.strip() for cell in header.split("|")].index(f"format {__version__}")
    cells = {row.split("|")[1].strip(): row.split("|")[column].strip() for row in rows}
    document = dumps(certify(margin).to_json_dict()) + "\n"
    assert int(cells[str(margin)].replace(",", "")) == len(document.encode())
