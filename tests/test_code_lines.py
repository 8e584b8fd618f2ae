import code_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment on a code line

# A comment line.


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring."""
        text = """a string
        that is not a docstring"""
        return len(text)


async def wait():
    "One-line docstring."
    x = 1; "not a docstring"
    return x
'''


def test_counts_lines_with_a_code_token():
    # import, class, def, the two lines of text, return, async def, x, return.
    assert code_lines.count_code_lines(SNIPPET) == 9
