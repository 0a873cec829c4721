"""Test-only oracle of the noise CSV: the long layout rebuilt from the wide one.

Up to 0.17.0 ``noise.csv`` held one ``t_start,t_end,j,increment`` line per
cell; it now holds one ``t_start,t_end,x_1..x_m`` row per step.
:func:`long_noise_lines` turns the wide rows back into the long lines by
splitting text only, never parsing a number, so every cell keeps the text
it was written with and the two layouts can be compared cell by cell.
"""


def long_noise_lines(text: str) -> list[str]:
    """The column line and cell lines of the long layout of a wide ``noise.csv`` text."""
    rows = [line for line in text.splitlines() if not line.startswith("# ")]
    columns = rows[0].split(",")
    m = len(columns) - 2
    assert columns == ["t_start", "t_end", *(f"x_{j}" for j in range(1, m + 1))], columns
    lines = ["t_start,t_end,j,increment"]
    for row in rows[1:]:
        t_start, t_end, *cells = row.split(",")
        assert len(cells) == m, row
        lines.extend(f"{t_start},{t_end},{j},{cell}" for j, cell in enumerate(cells, 1))
    return lines
