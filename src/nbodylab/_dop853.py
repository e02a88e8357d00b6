"""Dormand-Prince 8(5,3) with dense output at given times, forward in time only.

The one path of ``scipy.integrate.solve_ivp(fun, (0, t_end), y0,
method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)`` that
``models.simulate`` uses: real states, a scalar ``atol``, no events.  Method,
tableau and dense output are those of the DOP853 code (Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.10).
Each floating-point operation is scipy 1.17's, on the same operands in the
same order, so states and right-hand-side counts carry scipy's bits.  The
numpy calls around them differ: the right-hand side writes each stage
derivative into its row of the stage matrix K, the stage states are built in
place (a product with the rows before, times h, plus y; the addition commutes
exactly), and the step control runs on Python floats.  The dense output is
made once per run: a step that holds output times runs the three extra
stages and copies what its interpolant needs into a per-run store, and after
the last step one pass builds every step's coefficients and evaluates all
samples together.

Adapted from scipy/integrate/_ivp/rk.py, common.py and dop853_coefficients.py
of SciPy 1.17, under this licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions are met:

1. Redistributions of source code must retain the above copyright notice,
   this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above copyright notice,
   this list of conditions and the following disclaimer in the documentation
   and/or other materials provided with the distribution.

3. Neither the name of the copyright holder nor the names of its contributors
   may be used to endorse or promote products derived from this software
   without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE
DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR CONTRIBUTORS BE LIABLE
FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR CONSEQUENTIAL
DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR
SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER
CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY,
OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import bisect
import math
import warnings

import numpy as np

N_STAGES = 12
SAFETY = 0.9  # multiplies the step sizes the error asymptotics predict
MIN_FACTOR = 0.2  # smallest decrease of a step size
MAX_FACTOR = 10  # largest increase of a step size
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
MIN_RTOL = 100 * np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])

# nonzero entries {row: {column: value}} of the 16 x 16 stage matrix; row 12
# holds the weights B, rows 13-15 the extra stages of the dense output
_A_ROWS = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
# the error weights: E3 is B less the order-3 weights, in scipy's subtraction
_E3_SHIFT = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}
_E5 = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
# the interpolant's last four coefficient rows, over all 16 stages
_D_ROWS = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


def _dense(shape, rows):
    out = np.zeros(shape)
    for i, row in rows.items():
        out[i, list(row)] = list(row.values())
    return out


A = _dense((16, 16), _A_ROWS)
B = A[N_STAGES, :N_STAGES]
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
for _j, _v in _E3_SHIFT.items():
    E3[_j] -= _v
E5 = np.zeros(N_STAGES + 1)
E5[list(_E5)] = list(_E5.values())
D = _dense((4, 16), dict(enumerate(_D_ROWS)))


class StepUnderflow(ArithmeticError):
    """The step size fell below ten spacings of the floats at the current time."""


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, t_end, f0, rtol, atol):
    """First step size from the start (t = 0), Hairer-Norsett-Wanner Sec. II.4."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = np.empty_like(y0)
    fun(h0, y0 + h0 * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, t_end))


def _stages(fun, stages, t, y, h):
    """Fill the K rows of ``stages``, each from the rows before it.

    Returns the state the last stage was evaluated at; for row 12, whose
    weights are B, that is the step's 8th-order solution.
    """
    h_array = np.array(h)  # numpy multiplies by a 0-d array faster than by a float
    for rows_before, weights, c, row in stages:
        y_s = rows_before.dot(weights)
        y_s *= h_array
        y_s += y
        fun(t + c * h, y_s, row)
    return y_s


def _error_norm(K, h, scale):
    KT = K.T[:, :N_STAGES + 1]
    err5 = KT.dot(E5)
    err5 /= scale
    err3 = KT.dot(E3)
    err3 /= scale
    # np.linalg.norm(err) ** 2 in the norm's own numpy scalars, which turn an
    # overflow or 0 / 0 into inf or nan (a rejected step), as scipy's do
    err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return float(abs(h) * err5_norm_2 / np.sqrt(denom * len(scale)))


def integrate(fun, y0, t_end, t_eval, rtol, atol):
    """States at the increasing times ``t_eval`` in [0, t_end], one row each.

    ``fun(t, y, out)`` writes dy/dt into ``out`` and returns nothing.  Each
    ``out`` is a row of the stage matrix K, so the rows of K are the function's
    outputs, written in place.  ``fun`` must not change ``y``, and may keep it:
    the stepper never writes to an array once it has passed it as ``y``.  The
    start is y0 at t = 0.  Each step that holds output times adds its start,
    size, end states and interpolant rows to a per-run store, and
    ``_dense_output`` evaluates all samples from it after the last step.  The
    (len(t_eval), len(y0)) result has the memory layout of scipy's
    ``sol.y.T``: C-ordered if some step holds two samples or more, else
    Fortran-ordered.  Raises StepUnderflow with scipy's message when the step
    size underflows.
    """
    if rtol < MIN_RTOL:
        warnings.warn(f"rtol {rtol} is below {MIN_RTOL}; using {MIN_RTOL}", stacklevel=3)
        rtol = MIN_RTOL
    t, y = 0.0, np.asarray(y0, dtype=float)
    K = np.empty((16, y.size))
    f = K[0]  # the derivative at (t, y); row 12 holds each attempt's end
    fun(t, y, f)
    h_abs = _initial_step(fun, y, t_end, f, rtol, atol)
    # stage s: the rows before it (transposed), its weights, its node, its row
    stages = [(K.T[:, :s], A[s, :s], float(C[s]), K[s]) for s in range(16)]
    step_stages, dense_stages = stages[1:N_STAGES + 1], stages[N_STAGES + 1:]
    times = t_eval.tolist()
    # per step that holds samples: the index after its last sample, the
    # step's start, size and states, and the rows its interpolant is made of,
    # for one dense output pass after the last step
    store = []
    done = 0
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:  # until a step is accepted
            if h_abs < min_step:
                raise StepUnderflow(TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new = _stages(fun, step_stages, t, y, h)
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= rtol
            scale += atol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        stop = bisect.bisect_right(times, t_new)
        if stop > done:
            store.append((stop, t, h, y, y_new,
                          _dense_rows(fun, K, dense_stages, t, y, h)))
            done = stop
        t, y = t_new, y_new
        f[:] = K[N_STAGES]
    return _dense_output(t_eval, *map(np.array, zip(*store)))


def _dense_rows(fun, K, dense_stages, t_old, y_old, h):
    """f_old, f and D K of an accepted step: a copy of what its interpolant needs.

    Runs the three extra stages of the dense output into K first.
    """
    _stages(fun, dense_stages, t_old, y_old, h)
    rows = np.empty((6, y_old.size))
    rows[0] = K[0]
    rows[1] = K[N_STAGES]
    D.dot(K, out=rows[2:])
    return rows


def _dense_output(t_eval, ends, t_old, h, y_old, y, rows):
    """All samples of a run from its steps' degree-7 interpolants, in one pass.

    Row s of ``t_old``, ``h``, ``y_old``, ``y`` and ``rows`` (f_old, f and
    D K) belongs to the s-th step that holds samples, whose samples end at
    index ``ends[s]`` of ``t_eval``.  The coefficients F0..F6 of all steps
    come first, then Horner's rule runs over all samples at once:
    y_old + x (F0 + (1 - x) (F1 + x (F2 + ... x F6))) at x = (t - t_old) / h.
    Each operation on each element is that of the step-by-step interpolant.
    The (len(t_eval), n) result is assembled as scipy's ``sol.y.T`` is, from
    the transposed samples of each step, so it has the same memory layout:
    C-ordered if some step holds two samples or more, else Fortran-ordered.
    """
    h_col = h[:, None]
    F = np.empty((h.size, 7, y.shape[1]))
    delta_y = np.subtract(y, y_old, out=F[:, 0])
    F[:, 1] = h_col * rows[:, 0] - delta_y
    F[:, 2] = 2 * delta_y - h_col * (rows[:, 1] + rows[:, 0])
    np.multiply(rows[:, 2:], h_col[:, :, None], out=F[:, 3:])
    step = np.repeat(np.arange(h.size), np.diff(ends, prepend=0))
    shape = (t_eval.size, y.shape[1])
    # Horner's rule on full (samples, n) operands, for which numpy's loops
    # are faster than broadcasting a row or a column
    x = ((t_eval - t_old[step]) / h[step]).repeat(shape[1]).reshape(shape)
    one_minus_x = 1 - x
    out = np.zeros(shape)
    for i in range(7):
        out += F[step, 6 - i]
        out *= x if i % 2 == 0 else one_minus_x
    out += y_old[step]
    ends = ends.tolist()
    pieces = [out[a:b].T for a, b in zip([0, *ends], ends)]
    return np.concatenate(pieces, axis=1).T
