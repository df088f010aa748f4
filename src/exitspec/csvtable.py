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


def read_csv(path, header):
    """The rows of a table written with header, as lists of strings cut to
    its columns; blank lines are skipped. Raises ValueError naming path
    unless the file's leading columns are header's."""
    names = header.split(",")
    with open(path) as fh:
        if fh.readline().strip().split(",")[:len(names)] != names:
            raise ValueError(f"{path}: expected header {header}")
        return [line.split(",")[:len(names)]
                for line in map(str.strip, fh) if line]
