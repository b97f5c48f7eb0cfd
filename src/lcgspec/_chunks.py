"""The chunks of a dump: the orbit stepped by jump-ahead, and each chunk
rendered as its csv lines or table rows, with x/N as exact truncated decimals.

Chunk k holds X_(kL+1)..X_((k+1)L), cut at `count`.  The first is stepped one
term at a time; chunk k+1 is A*x + C mod N for each x of chunk k, with
A = a^L mod N and C = X_L - A*X_0 mod N: the jump-ahead
X_(n+L) = a^L X_n + c (a^L - 1)/(a - 1) mod N (Knuth, TAOCP vol. 2, 3.2.1),
exact for any (a, c, N).  Two chunks on, the jump is (A^2, A*C + C).

The module imports nothing from the package, so the same file runs as a
script in a second interpreter:

    python -I -S _chunks.py A C N X0 COUNT DIGITS PER_LINE FMT

with the integers in hex and FMT `csv` or `table`.  It renders the
odd-numbered chunks (k = 1, 3, ...) and writes each to stdout as its byte
length (8 bytes, little-endian), then its text: `script_args` makes that
command line and `receive` reads a chunk back.  `empirical.dump_sequence`
renders the even-numbered ones and writes every line in order.
"""

import sys  # the only import: the script starts in a bare interpreter

# Terms per chunk (a table chunk is rounded down to whole rows, and is one
# row when a row is longer)
_CHUNK = 512


def _fraction_digits(xs: list[int], N: int, digits: int) -> list[str]:
    """The fractional digits of x/N for every x in xs, truncated (never
    rounded) to `digits` digits, trailing zeros trimmed; "" when nothing
    remains.  The caller adds the prefix: x/N is "0." + f, or "0" when f is
    empty.  Unchecked: the caller guarantees 0 <= x < N and digits >= 1.

    When N divides 10^digits (every terminating default), the truncated
    numerator x * 10^digits // N is the product x * (10^digits // N), so no
    bignum division is made per value.
    """
    scale = 10**digits
    k, rem = divmod(scale, N)
    qs = [x * k for x in xs] if rem == 0 else [x * scale // N for x in xs]
    return [str(q).zfill(digits).rstrip("0") for q in qs]


def chunk_terms(count: int, csv: bool, per_line: int) -> int:
    """L, the terms per chunk: _CHUNK, cut to whole table rows, and to count."""
    return min(count, _CHUNK if csv else max(1, _CHUNK // per_line) * per_line)


def first_chunk(a: int, c: int, N: int, x0: int, L: int) -> tuple[list[int], int, int]:
    """X_1..X_L, stepped one term at a time, and the one-chunk jump (A, C)."""
    xs, x = [], x0
    for _ in range(L):
        x = (a * x + c) % N
        xs.append(x)
    A = pow(a, L, N)
    return xs, A, (x - A * x0) % N


def jump(xs: list[int], A: int, C: int, N: int) -> list[int]:
    return [(A * y + C) % N for y in xs]


def every_other_chunk(xs: list[int], first: int, count: int, L: int,
                      A: int, C: int, N: int):
    """(first, chunk) for the chunk xs, whose first term is X_first, and for
    every second chunk after it, each cut at X_count: a process that renders
    every other chunk steps by the two-chunk jump."""
    A2, C2 = A * A % N, (A * C + C) % N
    while first <= count:
        yield first, xs[:count + 1 - first]
        first += 2 * L
        if first <= count:  # so the chunk just yielded was whole
            xs = jump(xs, A2, C2, N)


def render(first: int, xs: list[int], N: int, digits: int, per_line: int,
           csv: bool) -> list[str]:
    """The chunk xs, whose first term is X_first, as csv lines n,x,u or as
    table rows of `per_line` values, each ending in a newline."""
    fs = _fraction_digits(xs, N, digits)
    if csv:
        return [f"{n},{x},0.{f}\n" if f else f"{n},{x},0\n"
                for n, x, f in zip(range(first, first + len(xs)), xs, fs)]
    rows = []
    for i in range(0, len(fs), per_line):
        row = fs[i:i + per_line]
        if "" in row:  # an x/N that truncates to 0
            rows.append("; ".join(f"0.{f}" if f else "0" for f in row) + "\n")
        else:
            rows.append("0." + "; 0.".join(row) + "\n")
    return rows


def script_args(a: int, c: int, N: int, x0: int, count: int, digits: int, per_line: int,
                fmt: str) -> list[str]:
    """This file and the arguments `serve` reads: the integers in hex, which
    no int-to-str digit limit applies to."""
    return [__file__, *(format(v, "x") for v in (a, c, N, x0, count, digits, per_line)), fmt]


def receive(pipe) -> list[str] | None:
    """The next chunk `serve` sent down `pipe`, as its lines; None when the
    sender ended before sending all of it."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data.decode().splitlines(keepends=True)
    return None


def serve(argv: list[str], out) -> None:
    """Write the odd-numbered chunks of the dump argv describes to `out`,
    each as its length and then its text, flushed at once."""
    a, c, N, x0, count, digits, per_line = (int(v, 16) for v in argv[:7])
    csv = argv[7] == "csv"
    L = chunk_terms(count, csv, per_line)
    xs, A, C = first_chunk(a, c, N, x0, L)
    for first, ys in every_other_chunk(jump(xs, A, C, N), L + 1, count, L, A, C, N):
        data = "".join(render(first, ys, N, digits, per_line, csv)).encode()
        out.write(len(data).to_bytes(8, "little") + data)
        out.flush()


if __name__ == "__main__":
    serve(sys.argv[1:], sys.stdout.buffer)
