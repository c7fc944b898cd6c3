package experiments

import (
	"fmt"
	"strings"

	"mixsoc/internal/dsp"
	"mixsoc/internal/wrapsim"
)

// Figure5 runs the Section 5 wrapper-accuracy experiment with the
// paper's parameters (three-tone stimulus, 4551 samples at
// 50 MHz / 29 ≈ 1.7 MHz, 8-bit wrapper on a 4 V supply).
func Figure5() (*wrapsim.CutoffResult, error) {
	return wrapsim.PaperCutoffExperiment().Run()
}

// RenderFigure5 formats the experiment result: the three spectra of
// Figure 5 as ASCII plots plus the extracted cut-off frequencies.
func RenderFigure5(res *wrapsim.CutoffResult) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: cut-off frequency test of core A, direct vs wrapped\n\n")
	fmt.Fprintf(&sb, "sample rate %.4g MHz, %d TAM cycles, true fc %.0f kHz\n\n",
		res.SampleRate/1e6, res.TestCycles, res.TrueFc/1e3)

	sb.WriteString("(a) applied analog test |LPF i/p|\n")
	sb.WriteString(renderSpectrum(res.StimulusSpectrum, 250e3, 64, 12))
	sb.WriteString("\n(b) analog response |LPF o/p|\n")
	sb.WriteString(renderSpectrum(res.DirectSpectrum, 250e3, 64, 12))
	sb.WriteString("\n(c) wrapped response |Wrapper o/p|\n")
	sb.WriteString(renderSpectrum(res.WrappedSpectrum, 250e3, 64, 12))

	sb.WriteString("\nper-tone gains (direct vs wrapped):\n")
	for i := range res.DirectGains {
		d, w := res.DirectGains[i], res.WrappedGains[i]
		fmt.Fprintf(&sb, "  %6.0f kHz: %7.4f vs %7.4f (%+.2f%%)\n",
			d.Freq/1e3, d.Gain, w.Gain, 100*(w.Gain-d.Gain)/d.Gain)
	}
	fmt.Fprintf(&sb, "\nextracted fc: direct %.2f kHz, wrapped %.2f kHz -> error %.2f%%\n",
		res.DirectFc/1e3, res.WrappedFc/1e3, res.ErrorPercent)
	sb.WriteString("(paper: fc=61 kHz direct vs 58 kHz wrapped, error ~5%)\n")
	return sb.String()
}

// renderSpectrum draws a single-sided spectrum as an ASCII plot up to
// maxFreq, with the given plot width and height. The vertical axis is
// amplitude in dB (auto-scaled to the data, floored 70 dB below the
// peak).
func renderSpectrum(s *dsp.Spectrum, maxFreq float64, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	// Bucket bins into columns, keeping the max dB per column.
	cols := make([]float64, width)
	for i := range cols {
		cols[i] = -999
	}
	top := -999.0
	for k, f := range s.Freq {
		if f > maxFreq {
			break
		}
		c := int(f / maxFreq * float64(width-1))
		db := s.MagDB(k)
		if db > cols[c] {
			cols[c] = db
		}
		if db > top {
			top = db
		}
	}
	if top == -999 {
		return "(no data below maxFreq)\n"
	}
	var sb strings.Builder
	for row := 0; row < height; row++ {
		level := top - float64(row)/float64(height-1)*70
		label := "      "
		if row == 0 || row == height-1 || row == (height-1)/2 {
			label = fmt.Sprintf("%5.0f ", level)
		}
		sb.WriteString(label)
		sb.WriteByte('|')
		for c := 0; c < width; c++ {
			if cols[c] >= level {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("  dB  +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "       0%skHz %.0f\n", strings.Repeat(" ", width-8), maxFreq/1e3)
	return sb.String()
}

// Figure5CSV renders the three spectra as CSV (freq_hz, stimulus_db,
// direct_db, wrapped_db) up to maxFreq, for external plotting.
func Figure5CSV(res *wrapsim.CutoffResult, maxFreq float64) string {
	var sb strings.Builder
	sb.WriteString("freq_hz,stimulus_db,direct_db,wrapped_db\n")
	for k, f := range res.StimulusSpectrum.Freq {
		if f > maxFreq {
			break
		}
		fmt.Fprintf(&sb, "%.1f,%.2f,%.2f,%.2f\n",
			f, res.StimulusSpectrum.MagDB(k), res.DirectSpectrum.MagDB(k), res.WrappedSpectrum.MagDB(k))
	}
	return sb.String()
}
