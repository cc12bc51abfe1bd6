// coverage program: evicted stitches revived under a one-entry cache
// args: 3 6
// config: cache=lru:1
// The cache-pressure region (the key bounds an unrolled loop) entered
// with keys drawn as r % x: a one-entry cache evicts on every key
// change, and each return to an evicted key re-installs its words
// (CodeCache.revive) instead of stitching again.  Generated programs
// almost never revive, so this keeps the oracle's legs comparing
// revived code against the interpreter and the static build.

int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 2; i++) t += i * k + 1;
        return t;
    }
}

int main(int x) {
    int r = 7;
    int t = 0;
    int i;
    for (i = 0; i < 24; i++) {
        r = (r * 29 + 13) % 64;
        t = t + region(r % x, i);
    }
    return t;
}
