"""The one format of every table the package writes or reads: a header
line of column names, then one comma-separated line per row, floats with
17 significant digits so that they read back to the same bits."""


def write_csv(path, header, rows):
    """Writes header ("a,b,...") and rows: floats (numpy's float64 among
    them) as :.17g, everything else with str."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def read_csv(path, header, types=None):
    """The rows of a table written with header, cut to its columns and
    passed through types, one converter per column (strings without);
    blank lines are skipped. Raises ValueError naming path unless the
    leading columns are header's, and its line for a short or bad row."""
    names = header.split(",")
    types = types or [str] * len(names)
    rows = []
    with open(path) as fh:
        if fh.readline().strip().split(",")[:len(names)] != names:
            raise ValueError(f"{path}: expected header {header}")
        for line_no, line in enumerate(map(str.strip, fh), start=2):
            if not line:
                continue
            fields = line.split(",")[:len(names)]
            try:
                if len(fields) < len(names):
                    raise ValueError(f"{header} needs {len(names)} fields")
                rows.append([t(v) for t, v in zip(types, fields)])
            except ValueError as exc:
                raise ValueError(f"{path}, line {line_no}: {exc}") from None
    return rows
