package scenario

import (
	"encoding/json"
	"fmt"
	"os"
)

// SaveReport writes a campaign report as indented JSON, the interchange
// format gsreport -invariants renders.
func SaveReport(path string, rep *CampaignReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("scenario: save report: %w", err)
	}
	return nil
}

// LoadReport reads a campaign report previously written by SaveReport.
func LoadReport(path string) (*CampaignReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: load report: %w", err)
	}
	var rep CampaignReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("scenario: parse report %s: %w", path, err)
	}
	return &rep, nil
}
