// fuzz reproducer (seed 84)
// args: -3 5
// features: var_branch, dynamic_deref, helper_call, plain_loop, memory_effect, division, derived_const, const_branch, float, float_div, float_cast, ternary, goto, shortcircuit
// divergence: status divergence between interp and dynamic+pycode: interp ok () vs dynamic+pycode crash (UnboundLocalError: cannot access local variable 'r6' where it is not associated with a value)
// implicated: pycode-backend
    int tab[16];
    int out[16];
    void initTab() {
        tab[0] = 8;
        tab[1] = 17;
        tab[2] = -5;
        tab[3] = -13;
        tab[4] = 4;
        tab[5] = 6;
        tab[6] = 10;
        tab[7] = 23;
        tab[8] = 22;
        tab[9] = -2;
        tab[10] = 13;
        tab[11] = -16;
        tab[12] = 9;
        tab[13] = 23;
        tab[14] = 20;
        tab[15] = -9;
    }
    int helper(int a, int b) {
        return a * 3 - (b ^ 5);
    }
    int f(int c0, int c1, int *tabp, int n, int x, int y) {
        dynamicRegion (c0, c1, tabp, n) {
            int j1;
            for (j1 = 0; j1 < ((x) & 3) + 0; j1++) {
            }
            return c1;
        }
    }
    int main(int x) {
        initTab();
        int acc = 0;
        int y0 = x ^ 3;
        acc = acc * 31 + f(-18, 15, tab, 1, x - 1, 1);
        int q;
        for (q = 0; q < 16; q++) acc = acc * 3 + out[q];
        print_int(acc);
        return acc;
    }
