package repro.core

/** Value quantization to boost duplicate density (paper §3.1).
  *
  * "Some insignificant low-order digits of streamed values may be zeroed out.
  * Often, we consider only the three most significant digits of the original
  * value, which ensures the quantized value within less than 1% relative
  * error."
  */
object Quantizer {

  // 10^e for the exponents where math.pow(10.0, e) is a nonzero finite
  // double; below them it underflows to 0.0, above them it overflows.
  private final val MinPow = -323
  private final val MaxPow = 308
  private val Pow10 = Array.tabulate(MaxPow - MinPow + 1)(i => math.pow(10.0, MinPow + i))

  /** `math.pow(10.0, e)` for every `e`, read from one table. [[quantize]]
    * scales by it and [[FreqSketch]] decodes its codes with it, so a decoded
    * code equals the quantized value bit for bit.
    */
  def pow10(e: Int): Double =
    if (e < MinPow) 0.0 else if (e > MaxPow) Double.PositiveInfinity else Pow10(e - MinPow)

  /** The decimal exponent of the last kept digit of `a > 0`: `a` is
    * quantized to a multiple of `pow10(exponent(a, digits))`.
    */
  def exponent(a: Double, digits: Int): Int = math.floor(math.log10(a)).toInt - (digits - 1)

  /** Keep the `digits` most significant decimal digits of `v` (round to
    * nearest); sign is preserved, 0 and non-finite values pass through.
    * With `digits = 3` the relative error is at most 0.5%.
    */
  def quantize(v: Double, digits: Int = 3): Double = {
    require(digits >= 1, s"digits must be >= 1, got $digits")
    if (v == 0.0 || v.isNaN || v.isInfinite) return v
    val a = math.abs(v)
    val scale = pow10(exponent(a, digits))
    val q = math.rint(a / scale) * scale
    if (v < 0) -q else q
  }
}
