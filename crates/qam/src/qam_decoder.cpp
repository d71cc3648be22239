
#pragma design top
void qam_decoder(sc_fixed<10,0> x_in_re[2], sc_fixed<10,0> x_in_im[2], uint6 *data) {
    const int nffe = 8;
    const int ndfe = 16;

    // coeffs for forward and decision equalizers (complex as re/im pairs)
    static sc_fixed<10,0> ffe_c_re[nffe];
    static sc_fixed<10,0> ffe_c_im[nffe];
    static sc_fixed<10,0> dfe_c_re[ndfe];
    static sc_fixed<10,0> dfe_c_im[ndfe];
    static sc_fixed<10,0> x_re[nffe];
    static sc_fixed<10,0> x_im[nffe];
    static sc_fixed<4,0>  sv_re[ndfe];
    static sc_fixed<4,0>  sv_im[ndfe];

    x_re[0] = x_in_re[0]; x_im[0] = x_in_im[0];
    x_re[1] = x_in_re[1]; x_im[1] = x_in_im[1];

    sc_fixed<11,1> yffe_re = 0;
    sc_fixed<11,1> yffe_im = 0;
    ffe: for (int k = 0; k < nffe; k++) {
        yffe_re += x_re[k] * ffe_c_re[k] - x_im[k] * ffe_c_im[k];
        yffe_im += x_re[k] * ffe_c_im[k] + x_im[k] * ffe_c_re[k];
    }

    sc_fixed<11,1> ydfe_re = 0;
    sc_fixed<11,1> ydfe_im = 0;
    dfe: for (int k = 0; k < ndfe; k++) {
        ydfe_re += sv_re[k] * dfe_c_re[k] - sv_im[k] * dfe_c_im[k];
        ydfe_im += sv_re[k] * dfe_c_im[k] + sv_im[k] * dfe_c_re[k];
    }

    sc_fixed<11,1> y_re = yffe_re - ydfe_re;
    sc_fixed<11,1> y_im = yffe_im - ydfe_im;

    // 64-QAM slicer (offset = 2^-4; rounding at the effective boundary).
    sc_fixed<3,0> r   = (sc_fixed<3,0,SC_RND_ZERO,SC_SAT>)(y_re - 0.0625);
    sc_fixed<3,0> i_c = (sc_fixed<3,0,SC_RND_ZERO,SC_SAT>)(y_im - 0.0625);
    sv_re[0] = r + 0.0625;
    sv_im[0] = i_c + 0.0625;
    sc_fixed<10,0> e_re = sv_re[0] - y_re;
    sc_fixed<10,0> e_im = sv_im[0] - y_im;
    sc_fixed<6,6> data_f = r * 64 + i_c * 8;
    *data = data_f;

    // Sign-LMS adaptation (mu = 2^-8); e * sign_conj(v) written out:
    //   re: sgn(v_re)*e_re + sgn(v_im)*e_im
    //   im: sgn(v_re)*e_im - sgn(v_im)*e_re
    ffe_adapt: for (int k = 0; k < nffe; k++) {
        ffe_c_re[k] += ((x_re[k] > 0 ? e_re : (x_re[k] < 0 ? -e_re : 0))
                      + (x_im[k] > 0 ? e_im : (x_im[k] < 0 ? -e_im : 0))) * 0.00390625;
        ffe_c_im[k] += ((x_re[k] > 0 ? e_im : (x_re[k] < 0 ? -e_im : 0))
                      - (x_im[k] > 0 ? e_re : (x_im[k] < 0 ? -e_re : 0))) * 0.00390625;
    }
    dfe_adapt: for (int k = 0; k < ndfe; k++) {
        dfe_c_re[k] -= ((sv_re[k] > 0 ? e_re : (sv_re[k] < 0 ? -e_re : 0))
                      + (sv_im[k] > 0 ? e_im : (sv_im[k] < 0 ? -e_im : 0))) * 0.00390625;
        dfe_c_im[k] -= ((sv_re[k] > 0 ? e_im : (sv_re[k] < 0 ? -e_im : 0))
                      - (sv_im[k] > 0 ? e_re : (sv_im[k] < 0 ? -e_re : 0))) * 0.00390625;
    }

    ffe_shift: for (int k = nffe - 4; k >= 0; k -= 2) {
        x_re[k + 3] = x_re[k + 1];
        x_im[k + 3] = x_im[k + 1];
        x_re[k + 2] = x_re[k];
        x_im[k + 2] = x_im[k];
    }
    dfe_shift: for (int k = ndfe - 2; k >= 0; k--) {
        sv_re[k + 1] = sv_re[k];
        sv_im[k + 1] = sv_im[k];
    }
}
