"""File formats: edge lists, feature matrices, chain outputs, reports.

All formats are plain UTF-8 text (whitespace edge lists, CSV, JSON) so runs
can be diffed and the weight plots reproduced from the sample files alone.
Vertex ids are 0-based everywhere.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import numpy as np

from .graph import LabelledNetwork, network_from_edges


# A vertex count taken from edge ids alone may exceed this only when at least
# half of the ids in [0, N) appear in an edge, so that N-sized arrays stay
# linear in the size of the edge list.
SPARSE_VERTEX_LIMIT = 1 << 16


class DataFormatError(ValueError):
    """Malformed input data (maps to exit code 2 in the CLI)."""


def read_bytes(path) -> bytes:
    """The whole of an input file, as stored."""
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path, digests=None, key=None) -> str:
    """The whole of an input file, decoded as UTF-8 with line endings kept
    and a leading byte-order mark dropped.

    With a dict ``digests``, the SHA-256 of the bytes read is stored there
    under ``key``, so a caller can name the file's contents without reading
    it again.
    """
    data = read_bytes(path)
    if digests is not None:
        digests[key] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def content_lines(text):
    """(line number, content) of each line that is not blank once '#' comments are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_edge_list(path):
    """Read 'u v [multiplicity]' lines; '#' comments and blanks are skipped.

    Repeated pairs accumulate multiplicity; u v and v u are the same edge.
    """
    return [edge for _, edge in _edge_lines(path)]


def _edge_lines(path, text=None):
    """(line number, (u, v, m)) of each edge line of text (by default the
    file's), checked as parse_edge_list says."""
    for lineno, line in content_lines(read_text(path) if text is None else text):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise DataFormatError(f"{path}:{lineno}: expected 'u v [m]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            m = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise DataFormatError(f"{path}:{lineno}: negative vertex id")
        if m <= 0:
            raise DataFormatError(f"{path}:{lineno}: multiplicity must be positive, got {m}")
        yield lineno, (u, v, m)


def _vertex_count(path, lines) -> int:
    """N taken from the ids of the (line number, edge) pairs of _edge_lines
    alone: the largest id + 1, under the rule of SPARSE_VERTEX_LIMIT; a
    breach names the first line with the largest id."""
    n = 1 + max((max(u, v) for _, (u, v, _) in lines), default=-1)
    if n > SPARSE_VERTEX_LIMIT:
        seen = len({x for _, (u, v, _) in lines for x in (u, v)})
        if 2 * seen < n:
            lineno = next(lineno for lineno, (u, v, _) in lines if n - 1 in (u, v))
            raise DataFormatError(
                f"{path}:{lineno}: vertex id {n - 1} would make {n} vertices, of which only {seen} "
                f"appear in an edge; without a feature file, a vertex count above "
                f"{SPARSE_VERTEX_LIMIT} needs at least half of its ids in an edge")
    return n


def _check_vertex_ids(path, lines, num_vertices, source) -> None:
    """Raise DataFormatError at the first of the (line number, edge) pairs
    of _edge_lines with an id at or beyond num_vertices, the count that the
    feature file ``source`` sets."""
    if max((max(u, v) for _, (u, v, _) in lines), default=-1) >= num_vertices:
        lineno, vid = next((lineno, x) for lineno, edge in lines
                           for x in edge[:2] if x >= num_vertices)
        raise DataFormatError(
            f"{path}:{lineno}: vertex id {vid} outside [0, {num_vertices}) set by {source}")


def _read_table(path, key, text=None):
    """Columns and rows of a CSV file whose first column holds integer keys.

    text is the file's contents, read from path when not given.

    Cells are stripped and rows of blank cells skipped.  Returns the column
    names after `key` and one (line number, key, other cells) triple per row,
    each row checked to have one cell per column.
    """
    reader = csv.reader(io.StringIO(read_text(path) if text is None else text, newline=""))
    try:
        header = [cell.strip() for cell in next(reader, [])]
        if not header or header[0] != key:
            raise DataFormatError(f"{path}: first header column must be {key!r}")
        rows = []
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise DataFormatError(
                    f"{path}:{reader.line_num}: row has {len(cells)} cells, expected {len(header)}")
            try:
                rows.append((reader.line_num, int(cells[0]), cells[1:]))
            except ValueError:
                raise DataFormatError(f"{path}:{reader.line_num}: non-integer {key} {cells[0]!r}") from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None
    return header[1:], rows


def _read_vertex_table(path, num_vertices=None, text=None):
    """Columns and per-vertex cells of a CSV file keyed by a 'vertex' column.

    Every vertex id in [0, N) must appear exactly once; N defaults to the
    number of rows.  text is the file's contents, read when not given.
    """
    columns, rows = _read_table(path, "vertex", text)
    if num_vertices is None:
        num_vertices = len(rows)
    cells = [None] * num_vertices
    for lineno, vid, row in rows:
        if not 0 <= vid < num_vertices:
            raise DataFormatError(f"{path}:{lineno}: vertex id {vid} outside [0, {num_vertices})")
        if cells[vid] is not None:
            raise DataFormatError(f"{path}:{lineno}: duplicate vertex id {vid}")
        cells[vid] = row
    missing = [vid for vid, row in enumerate(cells) if row is None]
    if missing:
        raise DataFormatError(f"{path}: missing vertices {missing[:5]}")
    return columns, cells


def parse_features(path, num_vertices: int = None, text: str = None):
    """Read a binary feature CSV with header 'vertex,<name1>,...,<nameD>'.

    Every vertex in [0, N) must appear exactly once; entries must be 0 or 1.
    N defaults to the number of rows.  text is the file's contents, read
    from path when not given.  Returns (matrix, names).
    """
    columns, cells = _read_vertex_table(path, num_vertices, text)
    for vid, row in enumerate(cells):
        for cell in row:
            if cell not in ("0", "1"):
                raise DataFormatError(f"{path}: entry {cell!r} for vertex {vid} is not a binary flag")
    return np.array(cells, dtype=np.int8).reshape(len(cells), len(columns)), tuple(columns)


def parse_categorical_features(path, num_vertices: int = None, text: str = None):
    """Read a categorical CSV and one-hot expand it into binary flags.

    Each column c with observed values v becomes flags named 'c-v'; flag
    order is column order, then sorted values within a column.  N defaults
    to the number of rows.  text is the file's contents, read from path when
    not given.  Returns (matrix, names).
    """
    columns, cells = _read_vertex_table(path, num_vertices, text)
    names = []
    index = {}
    for c, col in enumerate(columns):
        for val in sorted({row[c] for row in cells}):
            index[(c, val)] = len(names)
            names.append(f"{col}-{val}")
    matrix = np.zeros((len(cells), len(names)), dtype=np.int8)
    for vid, row in enumerate(cells):
        for c, val in enumerate(row):
            matrix[vid, index[(c, val)]] = 1
    return matrix, tuple(names)


def load_network(edges_path, features_path=None, categorical_path=None) -> LabelledNetwork:
    """Assemble a network from an edge list and optional feature files.

    The vertex count N is the row count of the first feature file given,
    and an edge id at or beyond it raises DataFormatError naming its line.
    Otherwise N is the largest edge endpoint + 1; that count may exceed
    SPARSE_VERTEX_LIMIT only if at least half of the ids in [0, N) appear in
    an edge, and a breach raises DataFormatError before anything N-sized is
    built.  Each file is read once; the network's input_sha256 maps
    "edges", "features" and "categorical_features" to the SHA-256 of the
    bytes of each file given.
    """
    digests = {}
    lines = list(_edge_lines(edges_path, read_text(edges_path, digests, "edges")))
    num_vertices, matrices, names = None, [], []
    for key, path, parse in (("features", features_path, parse_features),
                             ("categorical_features", categorical_path,
                              parse_categorical_features)):
        if path is not None:
            matrix, block_names = parse(path, num_vertices, read_text(path, digests, key))
            if num_vertices is None:
                _check_vertex_ids(edges_path, lines, matrix.shape[0], path)
            num_vertices = matrix.shape[0]
            matrices.append(matrix)
            names.extend(block_names)
    if num_vertices is None:
        num_vertices = _vertex_count(edges_path, lines)
    feats = np.hstack(matrices) if matrices else None
    try:
        return network_from_edges(num_vertices, [edge for _, edge in lines], feats, tuple(names),
                                  input_sha256=digests)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def builtin_path(name: str) -> Path:
    """Path to a bundled dataset file."""
    path = resources.files("ffbm").joinpath("data", name)
    if not path.is_file():
        raise DataFormatError(f"no bundled data file named {name!r}")
    return Path(str(path))


def load_polbooks() -> LabelledNetwork:
    """The bundled political-books co-purchasing network with affiliation flags."""
    return load_network(builtin_path("polbooks_edges.txt"),
                        builtin_path("polbooks_features.csv"))


# ---------------------------------------------------------------- writers

def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_edge_list(path, edges, comment=None):
    lines = [f"# {comment}\n"] if comment else []
    lines.extend(f"{u} {v}\n" if m == 1 else f"{u} {v} {m}\n" for u, v, m in edges)
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_features(path, matrix, names):
    _write_csv(path, ["vertex", *names],
               ([vid, *(int(x) for x in row)] for vid, row in enumerate(matrix)))


def write_block_samples(path, samples, retained):
    n = len(samples[0]) if samples else 0
    _write_csv(path, ["t", *(f"v{i}" for i in range(n))],
               ([t, *(int(x) for x in sample)] for t, sample in zip(retained, samples)))


def write_trace(path, values, column):
    _write_csv(path, ["t", column], ([t, repr(float(val))] for t, val in enumerate(values)))


def write_responsibilities(path, matrix):
    matrix = np.asarray(matrix)
    _write_csv(path, ["vertex", *(f"block{j}" for j in range(matrix.shape[1]))],
               ([vid, *(repr(float(x)) for x in row)] for vid, row in enumerate(matrix)))


def weight_column_names(num_blocks, feature_names):
    return [f"{r}.{name}" for r in range(num_blocks) for name in feature_names]


def write_weight_samples(path, samples, retained, feature_names):
    """Flattened weight samples, one row per retained iteration.

    Columns are named 'block.feature' so the weight plots can be rebuilt
    from this file alone.
    """
    num_blocks = samples[0].shape[0] if len(samples) else 0
    _write_csv(path, ["t", *weight_column_names(num_blocks, feature_names)],
               ([t, *(repr(float(x)) for x in np.asarray(w).ravel())]
                for t, w in zip(retained, samples)))


def read_weight_samples(path):
    """Inverse of write_weight_samples: returns (samples, retained, feature_names)."""
    cols, rows = _read_table(path, "t")
    blocks = [col.partition(".")[0] for col in cols]
    num_blocks = len(set(blocks))
    names = [col.partition(".")[2] for col, blk in zip(cols, blocks) if blk == "0"]
    if not cols or cols != weight_column_names(num_blocks, names):
        raise DataFormatError(f"{path}: columns are not 'block.feature' for blocks 0, 1, ...")
    samples, retained = [], []
    for lineno, t, cells in rows:
        try:
            flat = np.array([float(x) for x in cells])
        except ValueError:
            flat = None
        if flat is None or not np.isfinite(flat).all():
            raise DataFormatError(f"{path}:{lineno}: row t={t} has a weight that is not a finite number")
        samples.append(flat.reshape(num_blocks, len(names)))
        retained.append(t)
    if not samples:
        raise DataFormatError(f"{path}: no weight samples")
    return samples, retained, tuple(names)


def write_reduction(path, reduction, feature_names):
    kept = set(int(k) for k in reduction.kept)
    _write_csv(path, ["feature", "name", "score", "kept"],
               ([d, feature_names[d], repr(float(score)), int(d in kept)]
                for d, score in enumerate(reduction.scores)))


def write_json(path, payload):
    """Write payload as indented JSON; NaN and infinities are refused (they are not JSON)."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")
