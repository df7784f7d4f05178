"""Slow oracles that share no code with sptlab, for more than one test module."""


def partition_oracle(n):
    """p(0..n) by the textbook coin-counting recurrence."""
    ways = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            ways[i] += ways[i - k]
    return ways


def spt_bruteforce(n):
    """spt(n) by enumerating the ascending compositions of n, whose first
    part is the smallest; guarded to n <= 45.  Shares no code with sptlab."""
    if not 0 <= n <= 45:
        raise ValueError("brute-force spt is guarded to 0 <= n <= 45")
    if n == 0:
        return 0
    total = 0
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        part = a[: k + 1]
        total += part.count(part[0])
    return total
